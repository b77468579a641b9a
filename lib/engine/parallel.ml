(* The parallel (a.k.a. weakly restricted, paper Def C.4) chase: at each
   round, apply *all* triggers that are active at the start of the round
   simultaneously.

   The paper introduces the weakly restricted chase in the proof of the
   Treeification Theorem, where several "mirror images" of one trigger
   must fire at once.  (There it runs on multisets; on set instances —
   our case — simultaneous application is exactly the breadth-parallel
   strategy practical chase engines use.)  Note the subtlety the paper's
   definition embraces: a trigger active at the start of a round may be
   deactivated by another trigger of the same round; the weakly
   restricted chase applies it anyway.  Consequently the result can be
   strictly larger than any sequential restricted result, but it is still
   a model, and every atom is produced by a trigger that was active when
   its round began.

   Candidates are discovered incrementally with compiled plans over the
   interned columnar store ({!Chase_core.Cinstance}), as id keys
   ({!Candidate}): one seed for the database, then one delta
   discovery per atom actually added — never a full
   re-enumeration per round.  A candidate leaves the set for good once
   applied (its own head atoms satisfy it) or found inactive (activity
   is monotone downwards), so each round tests exactly the candidates
   the full recomputation would have found live, and the active sets —
   hence the rounds — are unchanged.  The per-round activity test is an
   independent map over the candidate array, parallelized across
   domains when a [pool] is supplied; canonical null naming (Def 3.1)
   makes the round result independent of evaluation order, and the
   applied list is reported in [Trigger.compare] order either way.

   Rounds can grow geometrically (a body joining two unrelated atoms
   squares the instance each round), so discovery stops once a round
   has found [max_round_triggers] (100,000) new candidates, and the run ends
   unsaturated before that round is applied — like running out of
   rounds, but bounding memory rather than time. *)

open Chase_core
module Exec = Chase_exec.Pool

type round = { index : int; applied : Trigger.t list; after : Instance.t }

type result = {
  database : Instance.t;
  rounds : round list;
  final : Instance.t;
  saturated : bool;  (* false when the round budget ran out *)
}

let default_max_rounds = 1_000
let max_round_triggers = 100_000

exception Round_bound

(* Canonical null naming (Def 3.1) throughout: atom identities then
   persist across rounds and into {!Sequentialize}, and a trigger firing
   in two different rounds produces the same atom.  Candidates are
   {!Candidate} keys; only the applied ones become [Trigger.t]s. *)
let run ?(max_rounds = default_max_rounds) ?(pool = Exec.inline) tgds database =
  let facts, run = Frontier.load tgds database in
  let seen = Candidate.Tbl.create 256 in
  let discovered = ref [] in
  let found = ref 0 in
  let discover c =
    if not (Candidate.Tbl.mem seen c) then begin
      if !found >= max_round_triggers then raise Round_bound;
      incr found;
      Candidate.Tbl.add seen c ();
      discovered := c :: !discovered
    end
  in
  let finish rounds saturated =
    { database; rounds = List.rev rounds; final = Cinstance.snapshot facts; saturated }
  in
  let is_active c = not (Candidate.head_satisfied run c) in
  let rec go candidates rounds i =
    if i >= max_rounds then finish rounds false
    else begin
      let cands = Array.of_list (List.sort (Candidate.compare run) candidates) in
      let verdicts = Exec.map_array pool is_active cands in
      let active = ref [] in
      Array.iteri (fun j c -> if verdicts.(j) then active := c :: !active) cands;
      let active = List.rev !active in
      match active with
      | [] -> finish rounds true
      | _ ->
          (* Inactive candidates are dropped for good (monotonicity);
             applied ones satisfy their own heads from now on. *)
          discovered := [];
          found := 0;
          (* once the bound trips, the round's remaining atoms are still
             added, so the recorded round is complete *)
          let bounded = ref false in
          let applied = List.map (Candidate.trigger run) active in
          List.iter
            (fun c ->
              List.iter
                (fun atom ->
                  if Cinstance.add facts atom && not !bounded then
                    try Candidate.iter_delta run atom discover
                    with Round_bound -> bounded := true)
                (fst (Candidate.instantiate run c)))
            active;
          let rounds = { index = i; applied; after = Cinstance.snapshot facts } :: rounds in
          if !bounded then finish rounds false else go !discovered rounds (i + 1)
    end
  in
  match Candidate.iter_seed run discover with
  | () -> go !discovered [] 0
  | exception Round_bound -> finish [] false

let round_count r = List.length r.rounds

let applications r = List.fold_left (fun n round -> n + List.length round.applied) 0 r.rounds
