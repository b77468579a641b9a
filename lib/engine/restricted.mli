(** The restricted (standard) chase (paper §3.2): apply only {e active}
    triggers until none remains.  Trigger choice is the only source of
    non-determinism; [strategy] makes it explicit and reproducible. *)

open Chase_core

(** Which pending candidate a run applies next ({!Frontier.strategy}). *)
type strategy = Frontier.strategy =
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

val default_max_steps : int

(** Run the restricted chase.  Stops when no active trigger remains
    ([Terminated]) or after [max_steps] applications.  A run that has
    used its whole budget is [Terminated] iff no pending candidate is
    active, else [Out_of_budget] — the rule of {!Frontier.chase}, which
    the store-backed engine runs; so a run whose full derivation takes
    exactly [max_steps] steps is [Terminated].

    When an [Obs] sink is installed the run reports the
    [restricted.steps] / [restricted.inactive] / [restricted.pool.*]
    counters, a [restricted.pool] gauge, a [restricted.run] span, and
    one ["step"] event per applied trigger; the instrumentation never
    influences the derivation (property-tested in [test/suite_obs.ml]).
    See [docs/OBSERVABILITY.md] for the full signal schema.

    [pool] (default: inline) parallelizes the activity scan of the
    store-backed engine as in {!Frontier.chase}; the derivation is
    {e bit-identical} to the sequential run for every strategy
    (property-tested in [test/suite_parallel_exec.ml]).  The [`Naive]
    backend ignores it. *)
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
