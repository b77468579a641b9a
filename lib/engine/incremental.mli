(** A resumable restricted-chase state: incremental maintenance for
    long-lived sessions (`chasectl serve`).

    A value of type {!t} owns the {!Frontier.t} that [Restricted.run]
    keeps on its stack — store, plans, head memo, pending candidates —
    so a chase can stop (budget) and resume, and new facts can arrive
    {e after} a chase saturated without re-chasing from scratch:
    {!assert_atoms} seeds only the delta ({!Frontier.discover}).

    {b Soundness.}  Instances only grow under assert/chase, so trigger
    activity is monotone downwards: candidates found inactive before an
    assert stay inactive, and every trigger that the grown instance
    admits but the old one did not must match at least one new atom —
    which is exactly what the delta seeding enumerates.  Nulls are
    canonical (Def 3.1), so a resumed run re-derives identical atoms
    rather than fresh copies.  A saturated session is therefore a
    restricted-chase result of (accumulated facts, T): a model, and
    universal for the accumulated database — hom-equivalent to any
    from-scratch chase of the same facts.  This equivalence is fuzzed
    by the [lib/check] oracle's [incremental-equivalence] profile,
    which replays randomized assert/chase interleavings against
    [Restricted.run].

    {b Retraction} is delete-and-rederive over a log of the applied
    triggers (the saturation view of Datalog maintenance), and its
    target is hom-equivalence, not bit-identity: the restricted result
    depends on the derivation.  {!retract_atoms} makes one forward pass
    over the log; a step survives when every body atom is in the new
    base or was derived by an earlier surviving step.  The survivors are
    still a restricted derivation from the new base: restricted
    activity is anti-monotone — a trigger active when applied is active
    on every subset of that instance — and each survivor's prefix
    instance is a subset of the one it fired on.  Every atom only dead
    steps derived is deleted, and the state resumes from three facts:
    - a trigger still pending keeps its place when its body survived;
    - a trigger popped earlier was applied or inactive, so some
      extension of its frontier mapped the head into the old instance;
      if that witness survived, it is still inactive;
    - otherwise a deleted atom matched one of its head atoms with the
      trigger's frontier values, so enumerating body homomorphisms with
      the frontier bound from each deleted atom
      ({!Plan.iter_witness_keys}) finds it again.
    The head memo is reset (head satisfaction is not anti-monotone) and
    the pool is fresh (its dedup set would drop triggers a later assert
    rediscovers).  The next chase therefore saturates to a model in
    which every atom is derivable from the surviving base: a universal
    model, hom-equivalent to a from-scratch chase of it.  The deleted
    atoms leave the store in place ([Cinstance.remove]), in sorted order,
    so the store, its plan source and the survivors' rows carry over;
    no store is reloaded.  The fuzz oracle's [incremental-equivalence]
    profile retracts every other batch after saturation, then the rest,
    base facts a step also derives, every other batch of a session that
    never took a snapshot, and facts of a budget-stopped session, on
    the drawn sets and their multi-head variants.  The log
    holds at most one entry per atom of the instance: an active trigger
    always adds one. *)

open Chase_core

(** Which budget stopped a chase call, when it did not saturate. *)
type limit = Steps | Wall | Facts

(** Stable lowercase name (["steps"], ["wall"], ["facts"]) — the value
    used on the wire by [chasectl serve]. *)
val limit_name : limit -> string

type outcome = {
  steps : int;  (** trigger applications performed by this call *)
  saturated : bool;  (** no active trigger remains *)
  incremental : bool;
      (** this call resumed a state some earlier call had saturated,
          with no retraction since that saturation *)
  limit : limit option;  (** the budget that stopped it, if unsaturated *)
}

type t

(** A fresh state over the TGD set and initial database; the frontier
    is seeded with every trigger of the database.  [backend] (default
    [`Columnar]) is recorded and reported by {!backend}; both tags name
    the one interned columnar store, {!Chase_core.Cinstance}. *)
val create :
  ?strategy:Restricted.strategy -> ?backend:Store.backend -> Tgd.t list -> Instance.t -> t

val tgds : t -> Tgd.t list

(** The store backend this state was created with. *)
val backend : t -> Store.backend

(** The accumulated asserted facts (load-time database plus asserts,
    minus retracts) — what a from-scratch chase would start from. *)
val base : t -> Instance.t

(** Persistent snapshot of the current (possibly partial) chase
    result.  Folds every atom added since the previous snapshot into
    the persistent image; request paths read the live store through
    {!mem} and {!source} instead. *)
val instance : t -> Instance.t

(** Membership in the current chase result, read from the live store. *)
val mem : t -> Atom.t -> bool

(** The live store as a plan source — what queries over the current
    chase result run against.  The session keeps one store for its
    lifetime; a retraction compacts it in place. *)
val source : t -> Plan.source

val cardinal : t -> int

(** Pending candidate triggers in the frontier. *)
val pending : t -> int

val saturated : t -> bool

(** True once some chase call saturated this state and no retraction
    happened since — the next chase will be incremental. *)
val warm : t -> bool

val steps_total : t -> int
val chases : t -> int

(** Retractions that removed at least one fact. *)
val retractions : t -> int

(** [assert_atoms t atoms] adds facts, seeding delta triggers for each
    genuinely new atom; returns the number actually added.  Clears
    {!saturated} when anything was added. *)
val assert_atoms : t -> Atom.t list -> int

(** [retract_atoms t atoms] removes the given facts from the base (the
    intersection; returns its size).  When nonempty, the atoms no
    surviving step derives are deleted from the store in place, and the
    triggers a deleted atom may have satisfied are re-seeded, so the
    next chase replays only that delta.  Counts
    [session.retract.deleted] and [session.retract.reseeded]. *)
val retract_atoms : t -> Atom.t list -> int

(** {!Frontier.chase}, the loop of [Restricted.run], until saturation
    or a budget: [max_steps] per call, [deadline] (polled every 32
    steps — wall-time admission control), [max_facts] a cap on the
    instance cardinality.  At [max_steps] the call is saturated iff no
    pending candidate is active, as a [Restricted.run] is
    [Terminated]; so a fresh state chased with budget [k] holds exactly
    [Derivation.final (Restricted.run ~max_steps:k ~naming:`Canonical)]
    of the same TGDs, database and strategy, and is saturated iff that
    run terminated.  Resumable: a stopped state continues where it left
    off on the next call. *)
val chase :
  ?epool:Chase_exec.Pool.t ->
  ?max_steps:int ->
  ?deadline:(unit -> bool) ->
  ?max_facts:int ->
  t ->
  outcome
