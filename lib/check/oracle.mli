(** The differential oracle: run one case through every engine
    configuration and check the metamorphic invariants that tie the
    paper's chase variants together.  A non-empty result is a bug in
    some engine, decider, or in the invariant itself — never "the
    random program was weird": every check is budget-aware and only
    fires when the involved runs actually completed within budget.

    Invariants checked (names appear in {!discrepancy.invariant}):

    - [backend-agreement] — the naive and the columnar-store restricted
      runs are bit-identical (status, triggers, produced atoms,
      frontier terms, final instance) for every strategy, under both
      null namings ([`Fresh] and [`Canonical]); same pair for the
      oblivious variants.  The naive run is the reference.
    - [jobs-agreement] — a parallel pool run equals the sequential one
      on the columnar store, under both namings.
    - [derivation-valid] — every step applied an active trigger to the
      previous instance ([Derivation.validate]).
    - [model] — a terminated restricted run's final instance is a model
      of the TGDs extending the database.
    - [stop-relation] — Fact 3.5: each applied trigger is active via
      the ≺s characterization on the instance it was applied to
      (single-head sets).
    - [oblivious-universal] — when both complete, the oblivious result
      and a terminated restricted result are hom-equivalent (both are
      universal models).
    - [ochase-atoms] — a complete ochase's atom set equals the
      saturated (set-based) oblivious chase (Def 3.3 vs §3.1).
    - [incremental-equivalence] — the assert/chase interleaving
      profile: feeding the database to a resumable session
      ([Incremental]) in k batches with a chase after each must land
      on a model of the accumulated facts that is hom-equivalent to
      the from-scratch chase (both are universal models of the same
      database) — replayed on the columnar store.  The same holds
      after each retraction that follows: of base facts a step had
      already derived (and their re-assert), of every other batch, of
      the rest (which must leave nothing), of every other batch of a
      session that took no snapshot since its first assert, and of half
      the facts of a session stopped by its step budget.  A fresh
      session chased with budget [k] (half and all of the derivation's
      length) must equal [Restricted.run ~max_steps:k] literally: same
      instance, same step count, saturated iff terminated.  Every
      scenario runs on the drawn set and on its multi-head variant
      ({!Gen.multi_head_variant}).
    - [decider-crash] — [Decider.decide] (and, in portfolio mode,
      [Decider.decide_portfolio]) must not raise.
    - [decider-wa] — weak acyclicity refutes a [Non_terminating] answer
      (fixed and portfolio reports alike).
    - [decider-termination] — a [Terminating] answer contradicted by
      divergence evidence from the exhaustive derivation search (only
      attempted on small cases, with a depth budget well beyond the
      observed derivation lengths; fixed and portfolio reports alike).
    - [decider-portfolio] — ([portfolio] mode) the raced portfolio must
      agree with the fixed dispatch: never the opposite conclusive
      answer, and never inconclusive where the fixed dispatch — whose
      procedures the portfolio supersets under the same budgets — was
      conclusive.
    - [sticky-prune] — ([portfolio] mode) subsumption pruning must not
      change the sticky verdict (DESIGN.md §10).
    - [engine-crash] — any engine raising an exception. *)

open Chase_core

type discrepancy = { invariant : string; detail : string }

type budgets = {
  restricted_steps : int;
  oblivious_steps : int;
  ochase_nodes : int;
  search_depth : int;
  search_states : int;
}

val default_budgets : budgets

val pp_discrepancy : Format.formatter -> discrepancy -> unit

(** Run the full matrix.  [pool] (default: inline) additionally checks
    parallel-vs-sequential agreement when it is an actual pool.
    [portfolio] (default: [false]) adds the portfolio-vs-fixed decider
    cross-exam and the subsumption-pruning cross-check. *)
val check :
  ?pool:Chase_exec.Pool.t ->
  ?budgets:budgets ->
  ?portfolio:bool ->
  Tgd.t list ->
  Instance.t ->
  discrepancy list
