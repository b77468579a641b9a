(* The restricted (standard) chase (paper §3.2).

   Starting from a database, repeatedly apply an *active* trigger until no
   active trigger remains (Terminated) or a step budget runs out.  Which
   active trigger is applied is the engine's only source of
   non-determinism, made explicit by [strategy]: the paper's CTres∀∀
   quantifies over all derivations, so callers can steer it.

   Two engines run the same schedule.  The store-backed one ([`Compiled],
   the default, and its alias [`Columnar]) is {!Frontier.chase}: compiled
   join plans over the interned columnar store, candidates as id keys,
   memoized head satisfaction.  [`Naive] is the generic-homomorphism
   search over the persistent instance, kept as the oracle for
   equivalence tests.  Both push candidates into the pool in batches
   sorted by {!Trigger.compare} (on keys, {!Candidate.compare}) — one for
   the database, one per produced atom — so the derivation is identical
   across backends for every strategy, and both stop at the budget by one
   rule: Terminated iff no pending candidate is active. *)

open Chase_core

type strategy = Frontier.strategy = Fifo | Lifo | Random of int
type backend = Backend.t

module Trigger_pool = Frontier.Pool (Trigger)

let default_max_steps = 10_000

(* Observability hooks (all no-ops unless a sink is installed; the
   step-event payload is only built when one is). *)
let obs_run_start ~backend ~strategy ~max_steps database =
  if Obs.enabled () then
    Obs.event "run"
      [
        ("engine", Obs.Str "restricted");
        ("backend", Obs.Str (Backend.name backend));
        ("strategy", Obs.Str (Frontier.strategy_name strategy));
        ("max_steps", Obs.Int max_steps);
        ("database_atoms", Obs.Int (Instance.cardinal database));
      ]

let obs_step trigger produced ~pool_size ~index =
  Obs.incr "restricted.steps";
  Obs.gauge "restricted.pool" pool_size;
  if Obs.enabled () then
    Obs.event "step"
      [
        ("engine", Obs.Str "restricted");
        ("index", Obs.Int index);
        ("tgd", Obs.Str (Tgd.name (Trigger.tgd trigger)));
        ("produced", Obs.Int (List.length produced));
        ("atoms", Obs.Str (String.concat ", " (List.map Atom.to_string produced)));
        ("pool", Obs.Int pool_size);
      ]

let obs_done d =
  if Obs.enabled () then
    Obs.event "done"
      [
        ("engine", Obs.Str "restricted");
        ( "status",
          Obs.Str
            (match Derivation.status d with
            | Terminated -> "terminated"
            | Out_of_budget -> "out_of_budget") );
        ("steps", Obs.Int (Derivation.length d));
      ]

let resolve_gen naming gen =
  (* [`Canonical] names nulls c^{σ,h}_x as in Def 3.1, so produced atoms
     coincide literally with real-oblivious-chase atoms (used when mapping
     derivations into ochase(D,T)); [`Fresh] uses a cheap counter. *)
  match (naming, gen) with
  | `Canonical, _ -> None
  | `Fresh, Some g -> Some g
  | `Fresh, None -> Some (Term.Gen.create ())

let run_naive ~strategy ~max_steps ~gen tgds database =
  let pool = Trigger_pool.create strategy in
  let push_batch ts = Trigger_pool.push_batch pool (List.sort Trigger.compare (List.of_seq ts)) in
  push_batch (Trigger.all_naive tgds database);
  let rec loop instance steps_rev n =
    let stop status = Derivation.make ~database ~steps:(List.rev steps_rev) ~status in
    if n >= max_steps then
      stop
        (if Trigger_pool.exists_active pool (Trigger.is_active_naive instance) then Out_of_budget
         else Terminated)
    else
      match Trigger_pool.pop pool with
      | None -> stop Terminated
      | Some trigger ->
          if not (Trigger.is_active_naive instance trigger) then begin
            Obs.incr "restricted.inactive";
            loop instance steps_rev n
          end
          else begin
            let after, produced = Trigger.apply ?gen instance trigger in
            List.iter (fun atom -> push_batch (Trigger.involving_naive tgds after atom)) produced;
            obs_step trigger produced ~pool_size:(Trigger_pool.size pool) ~index:n;
            let step =
              {
                Derivation.index = n;
                trigger;
                produced;
                frontier = Trigger.frontier_terms trigger;
                after = Lazy.from_val after;
              }
            in
            loop after (step :: steps_rev) (n + 1)
          end
  in
  loop database [] 0

(* The store-backed engine: both tags, [`Compiled] and [`Columnar], run
   {!Frontier.chase}, recording each step as a [Derivation] step; only
   an applied step builds its [Trigger.t]. *)
let run_store ~strategy ~max_steps ~gen ~epool tgds database =
  let fr = Frontier.create ~strategy tgds database in
  let steps_rev = ref [] in
  let prev = ref (Lazy.from_val database) in
  let record index c ~produced ~added:_ frontier =
    let trigger = Candidate.trigger (Frontier.run fr) c in
    obs_step trigger produced ~pool_size:(Frontier.pending fr) ~index;
    let before = !prev in
    let after = lazy (List.fold_left (fun i a -> Instance.add a i) (Lazy.force before) produced) in
    prev := after;
    steps_rev := { Derivation.index; trigger; produced; frontier; after } :: !steps_rev
  in
  let _, stop = Frontier.chase ~epool ?gen ~max_steps ~budget:Derivation.Out_of_budget ~record fr in
  (* The store no longer changes once the run ends, so the last step's
     instance is its snapshot: one fold of the atoms queued since the
     load, where forcing the chain of step snapshots would build, and
     keep, one persistent instance per step. *)
  let steps =
    match !steps_rev with
    | last :: rest ->
        List.rev
          ({ last with Derivation.after = lazy (Cinstance.snapshot (Frontier.facts fr)) } :: rest)
    | [] -> []
  in
  Derivation.make ~database ~steps ~status:(Option.value stop ~default:Derivation.Terminated)

let run ?(backend = `Compiled) ?(strategy = Fifo) ?(max_steps = default_max_steps)
    ?(naming = `Fresh) ?gen ?(pool = Chase_exec.Pool.inline) tgds database =
  let gen = resolve_gen naming gen in
  Obs.span "restricted.run" (fun () ->
      obs_run_start ~backend ~strategy ~max_steps database;
      let d =
        match backend with
        | `Naive -> run_naive ~strategy ~max_steps ~gen tgds database
        | `Compiled | `Columnar -> run_store ~strategy ~max_steps ~gen ~epool:pool tgds database
      in
      obs_done d;
      d)

(* Convenience: chase to completion or fail. *)
exception Did_not_terminate of Derivation.t

let run_exn ?backend ?strategy ?max_steps ?naming ?gen ?pool tgds database =
  let d = run ?backend ?strategy ?max_steps ?naming ?gen ?pool tgds database in
  match Derivation.status d with
  | Terminated -> Derivation.final d
  | Out_of_budget -> raise (Did_not_terminate d)

(* All active triggers on an instance, eagerly. *)
let active_triggers tgds instance =
  Trigger.all tgds instance |> Seq.filter (Trigger.is_active instance) |> List.of_seq
