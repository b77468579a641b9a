(* A resumable restricted-chase state — the engine core of
   `chasectl serve` (see incremental.mli for the soundness argument).

   The state is a {!Frontier.t} that survives between calls, plus the
   asserted base and a step log: a chase call is {!Frontier.chase}
   with the log as its recorder, an assert discovers each new atom's
   delta, and a retraction over-deletes along the log and replays.  A
   logged step keeps its [Trigger.t]: the removal renumbers ids, a
   trigger's terms stay.  Nulls are always canonical (Def 3.1), so a
   trigger firing before or after a resume produces the same atom. *)

open Chase_core

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
  backend : Store.backend;
  fr : Frontier.t;  (* the chase result so far and its pending candidates *)
  mutable base : Instance.t;  (* accumulated asserted facts *)
  mutable saturated : bool;
  mutable warm : bool;  (* some chase saturated since the last retraction *)
  mutable log : step array;  (* applied triggers, oldest first *)
  mutable log_len : int;
  mutable retractions : int;
  mutable steps_total : int;
  mutable chases : int;
}

let create ?(strategy = Restricted.Fifo) ?(backend = `Columnar) tgds database =
  {
    tgds;
    backend;
    (* the session's own plans, not [Plan.of_tgd]'s process-wide
       cache, which would keep them after the session is gone *)
    fr = Frontier.create ~plan:Plan.compile ~strategy tgds database;
    base = database;
    saturated = false;
    warm = false;
    log = [||];
    log_len = 0;
    retractions = 0;
    steps_total = 0;
    chases = 0;
  }

let tgds t = t.tgds
let base t = t.base
let backend t = t.backend
let instance t = Cinstance.snapshot (Frontier.facts t.fr)
let mem t atom = Cinstance.mem (Frontier.facts t.fr) atom
let source t = Candidate.source (Frontier.run t.fr)
let cardinal t = Cinstance.cardinal (Frontier.facts t.fr)
let pending t = Frontier.pending t.fr
let saturated t = t.saturated
let warm t = t.warm
let steps_total t = t.steps_total
let chases t = t.chases
let retractions t = t.retractions

let assert_atoms t atoms =
  let added =
    List.fold_left
      (fun n atom ->
        t.base <- Instance.add atom t.base;
        if Cinstance.add (Frontier.facts t.fr) atom then begin
          Frontier.discover t.fr atom;
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

let replay t gone =
  let run = Frontier.run t.fr in
  let deleted = List.sort Atom.compare (AtomTbl.fold (fun a () acc -> a :: acc) gone []) in
  let survives c = not (List.exists (AtomTbl.mem gone) (Candidate.body run c)) in
  Obs.count "session.retract.reseeded" (Frontier.remove t.fr ~keep:survives deleted);
  Obs.count "session.retract.deleted" (List.length deleted)

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

let chase ?epool ?(max_steps = Restricted.default_max_steps) ?deadline ?max_facts t =
  Obs.span "session.chase" @@ fun () ->
  let incremental = t.warm in
  t.chases <- t.chases + 1;
  let limit steps =
    match (deadline, max_facts) with
    | Some hit, _ when steps land 31 = 0 && hit () -> Some Wall
    | _, Some cap when cardinal t > cap -> Some Facts
    | _ -> None
  in
  let record _ c ~produced ~added _ =
    let owned = if List.compare_lengths added produced = 0 then produced else added in
    log_step t { trigger = Candidate.trigger (Frontier.run t.fr) c; produced; owned };
    Obs.incr "session.steps"
  in
  let steps, limit = Frontier.chase ?epool ~limit ~max_steps ~budget:Steps ~record t.fr in
  if limit = None then begin
    t.saturated <- true;
    t.warm <- true
  end;
  t.steps_total <- t.steps_total + steps;
  { steps; saturated = t.saturated; incremental; limit }
