(* A resumable restricted-chase state — the engine core of
   `chasectl serve` (see incremental.mli for the soundness argument).

   The state is exactly what [Restricted.run] keeps on its stack,
   lifted into a value that survives between calls: the columnar store
   and its plan source, the compiled plans, the head memo, and
   the pending-candidate pool (the trigger frontier).  [assert_atoms]
   is the semi-naive delta step: each genuinely new atom seeds
   [Plan.iter_delta_homs], so only triggers whose body uses a new atom
   ever enter the pool — never a full re-enumeration.  Monotonicity
   makes this complete: an instance only grows, so a trigger found
   inactive (or applied) before the assert stays inactive forever, and
   every trigger that could have become active matches a new atom.

   Retraction is delete-and-rederive over a step log.  Every applied
   trigger is logged with its result; one forward pass over the log
   keeps the steps whose body is still derivable from the surviving
   base, the atoms only dead steps derived are deleted, and the
   triggers whose head one of the deleted atoms may have witnessed are
   re-seeded through [Plan.iter_witness_homs].

   Nulls are always canonical (Def 3.1, [gen = None]): a trigger firing
   before or after a resume produces the same atom, so resumed runs
   cannot double-introduce witnesses. *)

open Chase_core
module Exec = Chase_exec.Pool

type limit = Steps | Wall | Facts

let limit_name = function Steps -> "steps" | Wall -> "wall" | Facts -> "facts"

type outcome = {
  steps : int;
  saturated : bool;
  incremental : bool;
  limit : limit option;
}

module AtomTbl = Hashtbl.Make (Atom)

(* One applied trigger and its result.  [owned] are the result atoms
   this step is the earliest logged derivation of: atoms it added to
   the store, plus atoms whose earlier derivations a retraction killed.
   A result atom the step does not own was already there when it fired
   — asserted, or derived by an earlier step that owns it.  The body
   image is recomputed when a retraction needs it, so an entry costs a
   few words beyond the trigger and atoms the pool and store hold. *)
type step = {
  trigger : Trigger.t;
  produced : Atom.t list;
  mutable owned : Atom.t list;  (* [== produced] when it owns them all *)
}

type t = {
  tgds : Tgd.t list;
  strategy : Restricted.strategy;
  backend : Store.backend;
  plans : (Tgd.t * Plan.t) list;
  mutable base : Instance.t;  (* accumulated asserted facts *)
  facts : Cinstance.t;  (* the chase result so far *)
  source : Plan.source;  (* [facts] as a plan source *)
  mutable memo : Plan.Head_memo.t;
  mutable pool : Restricted.Pool.t;
  mutable saturated : bool;
  mutable warm : bool;  (* some chase saturated since the last retraction *)
  mutable log : step array;  (* applied triggers, oldest first *)
  mutable log_len : int;
  mutable retractions : int;
  mutable steps_total : int;
  mutable chases : int;
}

let plan_of t tgd =
  match List.find_opt (fun (x, _) -> x == tgd) t.plans with
  | Some (_, p) -> p
  | None -> Plan.of_tgd tgd

(* Seed the pool with every trigger on the database — the cold start. *)
let seed_pool t =
  let batch = ref [] in
  List.iter
    (fun (tgd, p) ->
      Plan.iter_homs p t.source (fun hom -> batch := Trigger.make tgd hom :: !batch))
    t.plans;
  Restricted.Pool.push_batch t.pool !batch

let create ?(strategy = Restricted.Fifo) ?(backend = `Columnar) tgds database =
  let { Store.facts; source } = Store.of_instance backend database in
  let t =
    {
      tgds;
      strategy;
      backend;
      (* the session's own plans, not [Plan.of_tgd]'s process-wide
         cache, which would keep them after the session is gone *)
      plans = List.map (fun tgd -> (tgd, Plan.compile tgd)) tgds;
      base = database;
      facts;
      source;
      memo = Plan.Head_memo.create ();
      pool = Restricted.Pool.create strategy;
      saturated = false;
      warm = false;
      log = [||];
      log_len = 0;
      retractions = 0;
      steps_total = 0;
      chases = 0;
    }
  in
  seed_pool t;
  t

let tgds t = t.tgds
let base t = t.base
let backend t = t.backend
let instance t = Cinstance.snapshot t.facts
let mem t atom = Cinstance.mem t.facts atom
let source t = t.source
let cardinal t = Cinstance.cardinal t.facts
let pending t = Restricted.Pool.size t.pool
let saturated t = t.saturated
let warm t = t.warm
let steps_total t = t.steps_total
let chases t = t.chases
let retractions t = t.retractions

(* Delta discovery for one atom: one [plan.delta.seed] pass per plan,
   pushed as a canonically sorted batch (same discipline as
   [Restricted.run]). *)
let discover_delta t atom =
  let batch = ref [] in
  List.iter
    (fun (tgd, p) ->
      Plan.iter_delta_homs p t.source atom (fun hom ->
          batch := Trigger.make tgd hom :: !batch))
    t.plans;
  Restricted.Pool.push_batch t.pool !batch

let assert_atoms t atoms =
  let added =
    List.fold_left
      (fun n atom ->
        t.base <- Instance.add atom t.base;
        if Cinstance.add t.facts atom then begin
          discover_delta t atom;
          n + 1
        end
        else n)
      0 atoms
  in
  if added > 0 then begin
    Obs.count "session.assert.added" added;
    t.saturated <- false
  end;
  added

let body_of trigger = Substitution.apply_atoms (Trigger.hom trigger) (Tgd.body (Trigger.tgd trigger))

let log_step t step =
  if t.log_len = Array.length t.log then begin
    let log' = Array.make (max 16 (2 * t.log_len)) step in
    Array.blit t.log 0 log' 0 t.log_len;
    t.log <- log'
  end;
  t.log.(t.log_len) <- step;
  t.log_len <- t.log_len + 1

(* Over-delete: one forward pass over the log with [gone], the atoms
   not derivable so far, starting from the retracted facts.  A step
   whose body meets [gone] dies and its owned atoms join [gone] (unless
   the base still asserts them); a surviving step's result leaves
   [gone] again, and the step takes ownership of what it rescued.  The
   surviving steps are compacted in place; [gone] ends as exactly the
   atoms of the old instance that no surviving step or base fact
   supports. *)
let over_delete t retracted =
  let gone = AtomTbl.create 64 in
  List.iter (fun a -> AtomTbl.replace gone a ()) retracted;
  let kept = ref 0 in
  for i = 0 to t.log_len - 1 do
    let s = t.log.(i) in
    if List.exists (AtomTbl.mem gone) (body_of s.trigger) then
      List.iter (fun a -> if not (Instance.mem a t.base) then AtomTbl.replace gone a ()) s.owned
    else begin
      List.iter
        (fun a ->
          if AtomTbl.mem gone a then begin
            AtomTbl.remove gone a;
            if not (List.memq a s.owned) then s.owned <- a :: s.owned
          end)
        s.produced;
      t.log.(!kept) <- s;
      incr kept
    end
  done;
  if !kept = 0 then t.log <- [||] else Array.fill t.log !kept (t.log_len - !kept) t.log.(0);
  t.log_len <- !kept;
  gone

(* Replay: remove the deleted atoms from the store in place, keep the
   pending triggers whose body survived in a fresh pool (the old pool's
   dedup set remembers every trigger it ever saw, and would drop the
   ones a later assert rediscovers), and push every trigger a deleted
   atom may have witnessed the head of. *)
let replay t gone =
  let deleted = List.sort Atom.compare (AtomTbl.fold (fun a () acc -> a :: acc) gone []) in
  Cinstance.remove t.facts deleted;
  let pending = ref [] in
  Restricted.Pool.iter t.pool (fun trigger ->
      if not (List.exists (AtomTbl.mem gone) (body_of trigger)) then
        pending := trigger :: !pending);
  t.pool <- Restricted.Pool.create t.strategy;
  Restricted.Pool.push_batch t.pool !pending;
  let kept = Restricted.Pool.size t.pool in
  List.iter
    (fun atom ->
      let batch = ref [] in
      List.iter
        (fun (tgd, p) ->
          Plan.iter_witness_homs p t.source atom (fun hom ->
              batch := Trigger.make tgd hom :: !batch))
        t.plans;
      Restricted.Pool.push_batch t.pool !batch)
    deleted;
  Obs.count "session.retract.deleted" (List.length deleted);
  Obs.count "session.retract.reseeded" (Restricted.Pool.size t.pool - kept);
  t.memo <- Plan.Head_memo.create ()

let retract_atoms t atoms =
  let present = List.sort_uniq Atom.compare (List.filter (fun a -> Instance.mem a t.base) atoms) in
  match present with
  | [] -> 0
  | _ ->
      Obs.span "session.retract" (fun () ->
          List.iter (fun a -> t.base <- Instance.remove a t.base) present;
          replay t (over_delete t present));
      t.saturated <- false;
      t.warm <- false;
      t.retractions <- t.retractions + 1;
      List.length present

let default_max_steps = Restricted.default_max_steps

let chase ?(epool = Exec.inline) ?(max_steps = default_max_steps) ?deadline ?max_facts t =
  Obs.span "session.chase" @@ fun () ->
  let incremental = t.warm in
  t.chases <- t.chases + 1;
  let next_active =
    Restricted.make_next_active ~epool ~plan_of:(plan_of t) ~src:t.source
      ~memo:t.memo t.pool
  in
  let over_deadline =
    match deadline with
    | None -> fun _ -> false
    | Some hit -> fun steps -> steps land 31 = 0 && hit ()
  in
  let over_facts =
    match max_facts with
    | None -> fun () -> false
    | Some cap -> fun () -> cardinal t > cap
  in
  let rec go steps =
    if steps >= max_steps then (steps, Some Steps)
    else if over_deadline steps then (steps, Some Wall)
    else if over_facts () then (steps, Some Facts)
    else
      match next_active () with
      | None ->
          t.saturated <- true;
          t.warm <- true;
          (steps, None)
      | Some trigger ->
          (* add the whole result, then discover for every produced
             atom: [Restricted.run]'s order, so a fresh session derives
             what [Restricted.run ~naming:`Canonical] does *)
          let produced = Trigger.result trigger in
          let owned = List.filter (Cinstance.add t.facts) produced in
          List.iter (discover_delta t) produced;
          let owned = if List.compare_lengths owned produced = 0 then produced else owned in
          log_step t { trigger; produced; owned };
          Obs.incr "session.steps";
          go (steps + 1)
  in
  let steps, limit = go 0 in
  t.steps_total <- t.steps_total + steps;
  { steps; saturated = t.saturated; incremental; limit }
