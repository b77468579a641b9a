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
      are cached for a whole run);
    - body and head templates, so the store engines can carry a trigger
      as interned ids (a {!Key.t}) from match to apply and build its
      result without a substitution.

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

(** A store as a columnar source, typed as one: the key functions below
    take it, so they can only run against a columnar store. *)
type csource

(** A fresh columnar source over the store, with the same resolution
    cache as {!source_of_cinstance}'s. *)
val csource : Cinstance.t -> csource

(** The same source, resolution cache included, as a {!source}. *)
val source_of_csource : csource -> source

val cinstance : csource -> Cinstance.t

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

(** [iter_delta_homs p inst atom f]: every body homomorphism into
    [inst] that maps at least one body atom onto [atom], found by
    seeding each body position with [atom] and running the compiled
    suffix.  May present the same homomorphism once per matching seed
    position, like the generic incremental search.  The columnar store
    has {!iter_delta_keys} instead. *)
val iter_delta_homs : t -> Instance.t -> Atom.t -> (Substitution.t -> unit) -> unit

(** [head_satisfied p inst hom]: does some extension of [hom]'s frontier
    restriction map the head into [inst]?  ([hom] is a full body
    homomorphism; only its frontier bindings are read.)  The columnar
    store has {!head_satisfied_key} instead. *)
val head_satisfied : t -> Instance.t -> Substitution.t -> bool

(** {1 Candidate keys}

    The store engines carry each discovered trigger from match to apply
    as a {e key}: an [int array] whose cell [0] is a tag the caller
    chooses (the TGD's rank in a run) and whose cells [1..] are the
    interned ids of the body variables, in variable order.  Two keys of
    one plan compare as their triggers do ([Trigger.compare] on equal
    TGDs) when their cells are compared as terms, cell by cell.  A key
    lives as long as its ids: until the store's next
    {!Chase_core.Cinstance.remove}.  Every function of this section
    runs against a {!csource}. *)

module Key : sig
  type t = int array

  val equal : t -> t -> bool
  val hash : t -> int
end

(** Single-domain scratch for the key functions: one env and one undo
    trail, grown to the largest plan they serve and reused by every
    call, so a chase run allocates them once.  Not reentrant: the
    callback of an enumeration must not run another key function on
    the same scratch. *)
type scratch

val new_scratch : unit -> scratch

(** [iter_keys p cs sc ~tag f]: {!iter_homs} as keys tagged [tag]. *)
val iter_keys : t -> csource -> scratch -> tag:int -> (Key.t -> unit) -> unit

(** The ids of a stored atom's arguments, or [None] when one was never
    interned (then no row can join with the atom). *)
val atom_ids : csource -> Atom.t -> int array option

(** [iter_delta_keys p cs sc ~tag pred ids f]: every body homomorphism
    that maps at least one body atom onto the atom of [pred] whose
    argument ids are [ids] (see {!atom_ids}), as keys — the columnar
    twin of {!iter_delta_homs}, with the same repeats per seed
    position. *)
val iter_delta_keys :
  t -> csource -> scratch -> tag:int -> string -> int array -> (Key.t -> unit) -> unit

(** [iter_witness_keys p cs sc ~tag atom f]: every body homomorphism
    whose frontier image agrees with [atom] on some head atom that
    [atom] matches — the triggers whose head [atom] may have witnessed —
    as keys.  Each matching head atom binds its frontier variables from
    [atom] and the body runs with those pre-bound; [atom] itself need
    not be in the store.  Used to re-seed triggers after their witness
    is deleted ([Incremental.retract_atoms]).  May present a
    homomorphism once per matching head atom. *)
val iter_witness_keys : t -> csource -> scratch -> tag:int -> Atom.t -> (Key.t -> unit) -> unit

(** {!head_satisfied} on the store, for the key's frontier ids — no
    term is looked up. *)
val head_satisfied_key : t -> csource -> scratch -> Key.t -> bool

(** The key's tag followed by its frontier ids, in frontier variable
    order: what head satisfaction, and the semi-oblivious chase's
    applied-set, depend on. *)
val frontier_key : t -> Key.t -> Key.t

(** The body homomorphism a key stands for (counts [plan.key.hom]). *)
val hom_of_key : t -> csource -> Key.t -> Substitution.t

(** The key's body image, atoms in TGD order. *)
val body_of_key : t -> csource -> Key.t -> Atom.t list

(** [instantiate ?gen p cs key]: the result of the key's trigger and
    the set of its frontier terms — what [Trigger.result] and
    [Trigger.frontier_terms] give for [Trigger.make (tgd p)
    (hom_of_key p cs key)], built from the compiled head.  With [gen]
    the existential witnesses are fresh nulls drawn in variable order;
    without it they are [Trigger.canonical_null]'s names. *)
val instantiate :
  ?gen:Term.Gen.t -> t -> csource -> Key.t -> Atom.t list * Term.Set.t

(** {1 Memoized activity}

    Head satisfaction is monotone for a growing store: once some
    extension maps the head in, it stays in.  A memo keyed by the
    {!frontier_key} therefore caches positive answers — which also
    collapses the activity test across all triggers sharing a frontier
    image.  Keys must be tagged so that one tag names one plan, and the
    memo must be dropped when the store removes facts. *)
module Head_memo : sig
  type plan := t
  type t

  val create : unit -> t

  (** [is_active memo p cs sc key]: the Def 3.1 activity test, with the
      satisfied-head cache. *)
  val is_active : t -> plan -> csource -> scratch -> Key.t -> bool

  (** [known_inactive memo p key]: is [key]'s frontier already cached
      as satisfied?  A [false] answer decides nothing.  Used by the
      parallel scan to skip fanning out triggers the coordinator
      already knows are inactive. *)
  val known_inactive : t -> plan -> Key.t -> bool

  (** [record memo p key] caches [key]'s frontier as satisfied.  Sound
      only if [head_satisfied_key] held on (a subset of) the current
      store — the parallel scan uses it to fold worker verdicts back
      into the coordinator's memo. *)
  val record : t -> plan -> Key.t -> unit
end
