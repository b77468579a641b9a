(* A resumable restricted-chase state — the engine core of
   `chasectl serve` (see incremental.mli for the soundness argument).

   The state is exactly what [Restricted.run] keeps on its stack,
   lifted into a value that survives between calls: the columnar store
   and its plan source, the ranked plans ({!Candidate.run}), the head
   memo, and the pending-candidate pool (the trigger frontier, as id
   keys).  [assert_atoms] is the semi-naive delta step: each genuinely
   new atom seeds [Candidate.delta], so only triggers whose body uses a
   new atom ever enter the pool — never a full re-enumeration.  Monotonicity
   makes this complete: an instance only grows, so a trigger found
   inactive (or applied) before the assert stays inactive forever, and
   every trigger that could have become active matches a new atom.

   Retraction is delete-and-rederive over a step log.  Every applied
   trigger is logged with its result; one forward pass over the log
   keeps the steps whose body is still derivable from the surviving
   base, the atoms only dead steps derived are deleted, and the
   triggers whose head one of the deleted atoms may have witnessed are
   re-seeded through [Candidate.witness].  A logged step keeps its
   [Trigger.t]: the removal renumbers ids, a trigger's terms stay.

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
  run : Candidate.run;  (* the ranked plans over [facts] *)
  mutable base : Instance.t;  (* accumulated asserted facts *)
  facts : Cinstance.t;  (* the chase result so far *)
  mutable memo : Plan.Head_memo.t;
  mutable pool : Restricted.Cand_pool.t;
  mutable saturated : bool;
  mutable warm : bool;  (* some chase saturated since the last retraction *)
  mutable log : step array;  (* applied triggers, oldest first *)
  mutable log_len : int;
  mutable retractions : int;
  mutable steps_total : int;
  mutable chases : int;
}

let create ?(strategy = Restricted.Fifo) ?(backend = `Columnar) tgds database =
  let facts = (Store.of_instance backend database).facts in
  let t =
    {
      tgds;
      strategy;
      backend;
      (* the session's own plans, not [Plan.of_tgd]'s process-wide
         cache, which would keep them after the session is gone *)
      run =
        Candidate.create (Plan.csource facts)
          (List.map (fun tgd -> (tgd, Plan.compile tgd)) tgds);
      base = database;
      facts;
      memo = Plan.Head_memo.create ();
      pool = Restricted.Cand_pool.create strategy;
      saturated = false;
      warm = false;
      log = [||];
      log_len = 0;
      retractions = 0;
      steps_total = 0;
      chases = 0;
    }
  in
  (* the cold start: every trigger on the database *)
  Restricted.Cand_pool.push_batch t.pool (Candidate.seed t.run);
  t

let tgds t = t.tgds
let base t = t.base
let backend t = t.backend
let instance t = Cinstance.snapshot t.facts
let mem t atom = Cinstance.mem t.facts atom
let source t = Candidate.source t.run
let cardinal t = Cinstance.cardinal t.facts
let pending t = Restricted.Cand_pool.size t.pool
let saturated t = t.saturated
let warm t = t.warm
let steps_total t = t.steps_total
let chases t = t.chases
let retractions t = t.retractions

(* Delta discovery for one atom: one [plan.delta.seed] pass per plan,
   pushed as a canonically sorted batch (same discipline as
   [Restricted.run]). *)
let discover_delta t atom = Restricted.Cand_pool.push_batch t.pool (Candidate.delta t.run atom)

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

(* Replay: keep the pending candidates whose body survived, remove the
   deleted atoms from the store in place, and re-key the kept ones
   across the id renumbering the removal does (a surviving body keeps
   its terms interned) into a fresh pool (the old pool's dedup set
   remembers every candidate it ever saw, and would drop the ones a
   later assert rediscovers); then push every candidate a deleted atom
   may have witnessed the head of. *)
let replay t gone =
  let deleted = List.sort Atom.compare (AtomTbl.fold (fun a () acc -> a :: acc) gone []) in
  let pending = ref [] in
  Restricted.Cand_pool.iter t.pool (fun c ->
      if not (List.exists (AtomTbl.mem gone) (Candidate.body t.run c)) then pending := c :: !pending);
  let rename = Cinstance.remove t.facts deleted in
  let pending = List.map (Candidate.rename rename) !pending in
  t.pool <- Restricted.Cand_pool.create t.strategy;
  Restricted.Cand_pool.push_batch t.pool (List.sort (Candidate.compare t.run) pending);
  let kept = Restricted.Cand_pool.size t.pool in
  List.iter
    (fun atom -> Restricted.Cand_pool.push_batch t.pool (Candidate.witness t.run atom))
    deleted;
  Obs.count "session.retract.deleted" (List.length deleted);
  Obs.count "session.retract.reseeded" (Restricted.Cand_pool.size t.pool - kept);
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
  let next_active = Restricted.make_next_active ~epool ~run:t.run ~memo:t.memo t.pool in
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
      | Some c ->
          (* add the whole result, then discover for every produced
             atom: [Restricted.run]'s order, so a fresh session derives
             what [Restricted.run ~naming:`Canonical] does *)
          let produced, _ = Candidate.instantiate t.run c in
          let owned = List.filter (Cinstance.add t.facts) produced in
          List.iter (discover_delta t) produced;
          let owned = if List.compare_lengths owned produced = 0 then produced else owned in
          log_step t { trigger = Candidate.trigger t.run c; produced; owned };
          Obs.incr "session.steps";
          go (steps + 1)
  in
  let steps, limit = go 0 in
  t.steps_total <- t.steps_total + steps;
  { steps; saturated = t.saturated; incremental; limit }
