(** Compiled join plans for TGD bodies and heads.

    Every decision procedure in the repo bottoms out in the chase loop,
    which matches TGD bodies against the current instance over and over.
    The generic {!Chase_core.Homomorphism} search re-plans the atom
    order per call and threads persistent maps through the hot loop;
    this module instead compiles each TGD {e once} into:

    - a fixed body atom order chosen by static selectivity (connected,
      most-constrained-first greedy ordering);
    - per-atom index choices: the positions statically known to be bound
      when the atom is matched, among which the least-populated
      [(pred, pos, term)] index is picked at runtime;
    - slot-based matching: variables are interned into integer slots, so
      the inner loop binds into a scratch array with an undo trail
      instead of a balanced map;
    - a {e seed-atom} variant per body atom for incremental matching:
      "all homomorphisms whose i-th body atom is this delta atom" runs a
      plan suffix instead of re-unifying the whole body;
    - a head plan with the frontier slots pre-bound, backing the active
      trigger test, plus a memo keyed by frontier image (head
      satisfaction is monotone under chase growth, so positive answers
      are cached for a whole run).

    Plans run against an abstract {!source}, so the same compiled plans
    serve the persistent {!Chase_core.Instance} and the mutable columnar
    {!Chase_core.Cinstance}. *)

open Chase_core

type t

(** Compile the TGD's body, delta and head plans. *)
val compile : Tgd.t -> t

(** Memoizing wrapper around {!compile} (keyed by the TGD itself), so
    call sites that receive plain TGD lists still compile once.  The
    cache is process-wide and never evicts: long-lived callers that see
    an open-ended stream of TGDs (serve sessions, queries) compile
    privately with {!compile} instead. *)
val of_tgd : Tgd.t -> t

(** Number of plans the {!of_tgd} cache holds. *)
val cached : unit -> int

(** [scoped f] runs [f], then restores the {!of_tgd} cache to what it
    held before, dropping the plans [f] cached — for long-lived callers
    running library code that compiles through {!of_tgd} (the deciders,
    [Restricted.run]) on TGDs they may never see again.  A plan [f]
    obtained stays valid.  Plans other domains cache while [f] runs are
    dropped too, so scope only work that owns the process meanwhile. *)
val scoped : (unit -> 'a) -> 'a

val tgd : t -> Tgd.t

(** {1 Data sources} *)

(** What a plan runs against.  A persistent {!Instance} presents atoms
    as [Atom.t] and is matched structurally; the columnar {!Cinstance}
    is probed through an id-based twin of the runtime — same compiled
    steps, same index policy, but the innermost loop compares dense
    term ids.  Both enumerate the same homomorphisms. *)
type source

val source_of_instance : Instance.t -> source

(** A columnar source remembers the relations and constant ids each
    plan step resolved to, until the store's next removal
    ({!Chase_core.Cinstance.removals}), so a caller should make one
    source per store and keep it. *)
val source_of_cinstance : Cinstance.t -> source

(** {1 Running plans} *)

(** [iter_homs p src f] calls [f] on every homomorphism from the body of
    [tgd p] into the source.  The substitutions bind exactly the body
    variables (same domain as the generic search). *)
val iter_homs : t -> source -> (Substitution.t -> unit) -> unit

(** [iter_tuples p src vars f] calls [f] on the image of [vars] under
    every body homomorphism into the source, in the order of [vars] —
    the projection {!iter_homs} would give, read straight from the
    matching slots, with no substitution built.  Duplicates are not
    removed.  Used to evaluate conjunctive queries
    ([Chase_query.Conjunctive_query]).
    @raise Invalid_argument when some of [vars] is not a body variable. *)
val iter_tuples : t -> source -> Term.t list -> (Term.t list -> unit) -> unit

(** [iter_delta_homs p src atom f]: every body homomorphism that maps at
    least one body atom onto [atom], found by seeding each body position
    with [atom] and running the compiled suffix.  May present the same
    homomorphism once per matching seed position, like the generic
    incremental search. *)
val iter_delta_homs : t -> source -> Atom.t -> (Substitution.t -> unit) -> unit

(** [iter_witness_homs p src atom f]: every body homomorphism whose
    frontier image agrees with [atom] on some head atom that [atom]
    matches — the triggers whose head [atom] may have witnessed.  Each
    matching head atom binds its frontier variables from [atom] and the
    body runs with those pre-bound; [atom] itself need not be in the
    source.  Used to re-seed triggers after their witness is deleted
    ([Incremental.retract_atoms]).  May present a homomorphism once per
    matching head atom. *)
val iter_witness_homs : t -> source -> Atom.t -> (Substitution.t -> unit) -> unit

(** [head_satisfied p src hom]: does some extension of [hom]'s frontier
    restriction map the head into the source?  ([hom] is a full body
    homomorphism; only its frontier bindings are read.) *)
val head_satisfied : t -> source -> Substitution.t -> bool

(** The frontier image of a body homomorphism, in canonical variable
    order — head satisfaction depends only on this. *)
val frontier_image : t -> Substitution.t -> Term.t list

(** {1 Memoized activity}

    Head satisfaction is monotone for a growing instance: once some
    extension maps the head in, it stays in.  A per-run memo keyed by
    (plan, frontier image) therefore caches positive answers — which
    also collapses the activity test across all triggers sharing a
    frontier image. *)
module Head_memo : sig
  type plan := t
  type t

  val create : unit -> t

  (** [is_active memo p src hom]: the Def 3.1 activity test, with the
      satisfied-head cache.  Sound only while the underlying source
      grows monotonically (which chase runs guarantee). *)
  val is_active : t -> plan -> source -> Substitution.t -> bool

  (** [known_inactive memo p hom]: is [hom]'s frontier image already
      cached as satisfied?  A [false] answer decides nothing.  Used by
      the parallel scan to skip fanning out triggers the coordinator
      already knows are inactive. *)
  val known_inactive : t -> plan -> Substitution.t -> bool

  (** [record memo p hom] caches [hom]'s frontier image as satisfied.
      Sound only if [head_satisfied] held on (a subset of) the current
      source — the parallel scan uses it to fold worker verdicts back
      into the coordinator's memo. *)
  val record : t -> plan -> Substitution.t -> unit
end
