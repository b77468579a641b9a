(** The restricted (standard) chase (paper §3.2): apply only {e active}
    triggers until none remains.  Trigger choice is the only source of
    non-determinism; [strategy] makes it explicit and reproducible. *)

open Chase_core

type strategy =
  | Fifo  (** oldest candidate first — yields fair derivations *)
  | Lifo  (** newest candidate first — depth-first, possibly unfair *)
  | Random of int  (** uniformly random active candidate, seeded *)

(** Matching backend.  [`Compiled] (default) and [`Columnar] name the
    same engine: compiled join plans over the interned columnar store
    ({!Chase_core.Cinstance}) — id comparisons in the innermost join
    loop — with memoized head satisfaction.  [`Naive]: the generic
    homomorphism search over the persistent instance, the oracle.  Both
    produce {e identical} derivations for every strategy (candidates
    enter the pool in canonically sorted batches), which the property
    tests and the fuzz oracle check. *)
type backend = Backend.t

(** Stable lowercase name of a strategy (["fifo"], ["lifo"], ["random"])
    — the value used in observability events and by the CLI. *)
val strategy_name : strategy -> string

(** Stable lowercase name of a backend (["compiled"], ["columnar"],
    ["naive"]) — {!Backend.name}. *)
val backend_name : backend -> string

val default_max_steps : int

(** The pending-candidate pool, generic over its element: pushed in
    batches the caller sorts canonically, popped per [strategy],
    deduplicated by hash.  The store engines pool {!Candidate} keys
    ({!Cand_pool}), the naive engine [Trigger.t]s. *)
module Pool (E : Hashtbl.HashedType) : sig
  type t

  val create : strategy -> t

  (** Number of pending candidates. *)
  val size : t -> int

  (** Push a batch in its order, skipping elements the pool has ever
      held.  Callers sort it ({!Trigger.compare}, {!Candidate.compare})
      so the pool fills identically however the batch was discovered. *)
  val push_batch : t -> E.t list -> unit

  val pop : t -> E.t option

  (** The pending candidates, in storage order (not pop order). *)
  val iter : t -> (E.t -> unit) -> unit
end

(** The store engines' pool, exposed so resumable chase states
    ({!Incremental}) can keep a frontier alive across calls; {!run}
    manages one internally. *)
module Cand_pool : module type of Pool (Candidate)

(** [make_next_active ~epool ~run ~memo pool] returns a scanner: each
    call pops candidates until the first {e active} one ([None] = pool
    drained), testing activity through the shared head memo.  With a
    parallel [epool] the upcoming pops are tested speculatively across
    domains, preserving the sequential pop order bit-for-bit (see
    DESIGN.md §7).  Create one scanner per run or per resumed chase
    call — it carries per-scan window state. *)
val make_next_active :
  epool:Chase_exec.Pool.t ->
  run:Candidate.run ->
  memo:Plan.Head_memo.t ->
  Cand_pool.t ->
  unit ->
  Candidate.t option

(** Run the restricted chase.  Stops when no active trigger remains
    ([Terminated]) or after [max_steps] applications ([Out_of_budget]).

    When an [Obs] sink is installed the run reports the
    [restricted.steps] / [restricted.inactive] / [restricted.pool.*]
    counters, a [restricted.pool] gauge, a [restricted.run] span, and
    one ["step"] event per applied trigger; the instrumentation never
    influences the derivation (property-tested in [test/suite_obs.ml]).
    See [docs/OBSERVABILITY.md] for the full signal schema.

    [pool] (default: inline) parallelizes the activity scan on the
    store-backed engine ([`Compiled], [`Columnar]): a speculative
    window of upcoming pops is tested
    across domains against the frozen instance and the first active
    trigger in pop order wins, so the derivation — triggers, order,
    nulls, status — is {e bit-identical} to the sequential run for every
    strategy (property-tested in [test/suite_parallel_exec.ml]; see
    DESIGN.md §7 for the argument).  The [`Naive] backend ignores it. *)
val run :
  ?backend:backend ->
  ?strategy:strategy ->
  ?max_steps:int ->
  ?naming:[ `Fresh | `Canonical ] ->
  ?gen:Term.Gen.t ->
  ?pool:Chase_exec.Pool.t ->
  Tgd.t list ->
  Instance.t ->
  Derivation.t

exception Did_not_terminate of Derivation.t

(** The final instance of a terminating run.
    @raise Did_not_terminate when the budget runs out first. *)
val run_exn :
  ?backend:backend ->
  ?strategy:strategy ->
  ?max_steps:int ->
  ?naming:[ `Fresh | `Canonical ] ->
  ?gen:Term.Gen.t ->
  ?pool:Chase_exec.Pool.t ->
  Tgd.t list ->
  Instance.t ->
  Instance.t

(** All active triggers on an instance. *)
val active_triggers : Tgd.t list -> Instance.t -> Trigger.t list
