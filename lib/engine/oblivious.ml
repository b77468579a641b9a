(* The oblivious and semi-oblivious chase (paper §3.1).

   The oblivious chase applies every trigger — active or not — that has
   not been applied before, until a fixpoint.  With the canonical null
   naming of Def 3.1 the result is the unique ⊆-minimal instance I_{D,T}
   closed under trigger application, independent of order.

   The semi-oblivious chase identifies triggers agreeing on the frontier:
   (σ, h) is applied only if no (σ, h') with h'|fr = h|fr was.

   As in {!Restricted}, two engines run the same schedule: the
   store-backed one ([`Compiled], the default, and its alias
   [`Columnar]) uses compiled plans over the interned columnar store,
   [`Naive] the generic search over the persistent instance.
   Candidates are enqueued in sorted batches, so both produce the same
   application sequence — which matters for the semi-oblivious variant,
   where the choice of frontier-class representative decides the
   canonical null names. *)

open Chase_core

type variant = Oblivious | Semi_oblivious

type backend = Backend.t

type result = {
  instance : Instance.t;
  applications : int;
  saturated : bool;  (* false when the step budget ran out *)
}

let default_max_steps = 10_000

(* Shared queue discipline: enqueue canonically sorted batches, dedup
   by the key a candidate is remembered under as applied — the
   oblivious chase keys the whole trigger, the semi-oblivious one its
   TGD and frontier image.  [Tbl] hashes the element type, [key] maps a
   candidate to its applied-key.  The naive engine queues [Trigger.t]s,
   the store engine {!Candidate} keys. *)
let make_enqueue (type k) (module Tbl : Hashtbl.S with type key = k) ~key queue =
  let applied = Tbl.create 256 in
  fun ts ->
    List.iter
      (fun t ->
        let k = key t in
        if Tbl.mem applied k then Obs.incr "oblivious.dup"
        else begin
          Obs.incr "oblivious.enqueue";
          Tbl.add applied k ();
          Queue.add t queue
        end)
      ts

let variant_name = function Oblivious -> "oblivious" | Semi_oblivious -> "semi_oblivious"

let obs_run_start ~variant ~backend ~max_steps database =
  if Obs.enabled () then
    Obs.event "run"
      [
        ("engine", Obs.Str (variant_name variant));
        ("backend", Obs.Str (Backend.name backend));
        ("max_steps", Obs.Int max_steps);
        ("database_atoms", Obs.Int (Instance.cardinal database));
      ]

let obs_done (r : result) =
  if Obs.enabled () then
    Obs.event "done"
      [
        ("engine", Obs.Str "oblivious");
        ("applications", Obs.Int r.applications);
        ("saturated", Obs.Bool r.saturated);
        ("atoms", Obs.Int (Instance.cardinal r.instance));
      ]

module TrigTbl = Hashtbl.Make (Trigger)

let run_naive ~variant ~max_steps tgds database =
  let queue = Queue.create () in
  let key t =
    match variant with
    | Oblivious -> t
    | Semi_oblivious -> Trigger.make (Trigger.tgd t) (Trigger.frontier_hom t)
  in
  let enqueue =
    let enqueue = make_enqueue (module TrigTbl) ~key queue in
    fun ts -> enqueue (List.sort Trigger.compare (List.of_seq ts))
  in
  enqueue (Trigger.all_naive tgds database);
  let rec loop instance n =
    if Queue.is_empty queue || n >= max_steps then
      { instance; applications = n; saturated = Queue.is_empty queue }
    else
      let trigger = Queue.pop queue in
      Obs.incr "oblivious.applications";
      (* Canonical nulls: no generator, so re-derived atoms coincide. *)
      let after, produced = Trigger.apply instance trigger in
      List.iter
        (fun atom ->
          if not (Instance.mem atom instance) then
            enqueue (Trigger.involving_naive tgds after atom))
        produced;
      loop after (n + 1)
  in
  loop database 0

let run_store ~variant ~max_steps tgds database =
  let facts, run = Frontier.load tgds database in
  let queue = Queue.create () in
  let key =
    match variant with Oblivious -> Fun.id | Semi_oblivious -> Candidate.frontier_key run
  in
  let enqueue = make_enqueue (module Candidate.Tbl) ~key queue in
  enqueue (Candidate.seed run);
  let rec loop n =
    if Queue.is_empty queue || n >= max_steps then
      { instance = Cinstance.snapshot facts; applications = n; saturated = Queue.is_empty queue }
    else begin
      let c = Queue.pop queue in
      Obs.incr "oblivious.applications";
      let produced, _ = Candidate.instantiate run c in
      (* Add everything first (applications are simultaneous), remember
         which atoms were genuinely new. *)
      let fresh = List.filter (Cinstance.add facts) produced in
      Obs.count "oblivious.fresh_atoms" (List.length fresh);
      List.iter (fun atom -> enqueue (Candidate.delta run atom)) fresh;
      loop (n + 1)
    end
  in
  loop 0

let run ?(backend = `Compiled) ?(variant = Oblivious) ?(max_steps = default_max_steps) tgds
    database =
  Obs.span "oblivious.run" (fun () ->
      obs_run_start ~variant ~backend ~max_steps database;
      let r =
        match backend with
        | `Naive -> run_naive ~variant ~max_steps tgds database
        | `Compiled | `Columnar -> run_store ~variant ~max_steps tgds database
      in
      obs_done r;
      r)

(* Does the oblivious chase saturate within the budget? *)
let terminates_within ?backend ?variant ~max_steps tgds database =
  (run ?backend ?variant ~max_steps tgds database).saturated
