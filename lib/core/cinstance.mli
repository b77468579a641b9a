(** Columnar, interned mutable instances — the fact store of every
    store-backed chase engine.

    The logical contract of {!Instance} — [add]/[mem]/[with_pred]/
    [with_pos_term]/[snapshot] over ground atoms — made mutable: each
    relation (keyed by predicate {e and} arity) is stored as growable
    integer columns, one per argument position, over a
    {!Term_interner}:

    - a fact is one row: arity cells of dense term ids, no boxed
      [Atom.t] on the hot path;
    - per-position secondary indexes map a term id to the row numbers
      where it occurs;
    - duplicate detection hashes the id tuple and compares candidate
      rows by scanning columns — no structural [Atom.equal] either.
      A relation's dedup table is built by the first {!add} to it, not
      by the bulk load ({!of_instance}): a loaded relation nothing is
      added to never pays for one, and until then {!mem} answers
      through the load's sorted base tier instead.

    Join plans probe the columns directly through the {!Rel} API
    ({!Plan.source_of_cinstance}), comparing ids in the innermost loop.
    The interner's reverse lookup rebuilds real atoms only at the
    edges: snapshots, [with_pred]/[with_pos_term] views, and hom emit.

    {b Concurrency.}  Reads never mutate (in particular they never
    intern: a term the store has not seen occurs in no row), so the
    parallel speculative activity scan may probe a frozen store from
    many domains.  All mutation
    ({!add}, {!remove}) is single-domain, like every engine's.

    {b How long an id lives.}  A term id (from {!find_id}, or a cell of
    {!Rel.cols}) and a {!Rel.t} are valid until the next {!remove},
    which renumbers the interner and rebuilds the relations it touches.
    A compiled plan's source ({!Plan.source_of_cinstance}) keeps the
    relations and constant ids it resolved until {!removals} moves. *)

type t

(** A fresh, empty columnar instance. *)
val create : ?size_hint:int -> unit -> t

(** Columnar copy of a persistent instance: interns every term and
    fills pre-sized columns, then counting-sorts each column into the
    base tier.  Hashes no row — see {!add}. *)
val of_instance : Instance.t -> t

(** [add c a] inserts [a]; returns [true] when the atom is new.
    The first [add] to a bulk-loaded
    relation first hashes its loaded rows into the relation's dedup
    table (emitting [cinstance.rowset.build] and
    [cinstance.rowset.rows]). *)
val add : t -> Atom.t -> bool

(** Read-only, like every probe: on a relation whose dedup table is not
    built yet it searches the base tier (a binary search per position,
    then a cell compare over the narrowest range) rather than building
    the table. *)
val mem : t -> Atom.t -> bool
val cardinal : t -> int

(** Atoms with the given predicate — newest first within each
    (predicate, arity) relation. *)
val with_pred : t -> string -> Atom.t list

val pred_count : t -> string -> int

(** Atoms with the given term at the given 0-based position, newest
    first within each relation. *)
val with_pos_term : t -> string -> int -> Term.t -> Atom.t list

val pos_term_count : t -> string -> int -> Term.t -> int

val iter : (Atom.t -> unit) -> t -> unit

(** Persistent image of the current contents.  Amortized O(atoms added
    since the previous snapshot): between removals every atom is folded
    into the persistent image at most once, so a snapshot after each
    chase step costs no more in total than building the persistent
    instance directly.  The first snapshot after a {!remove} builds the
    image afresh from the rows. *)
val snapshot : t -> Instance.t

(** [remove c atoms] deletes the atoms of [atoms] the store holds (the
    others are ignored), compacting in place:
    - the surviving rows of each touched relation slide down in their
      order, and a relation left empty is dropped;
    - the interner keeps only the terms surviving rows use, renumbered
      in their old order ({!Term_interner.compact}: no term is hashed);
      every cell is renamed;
    - a touched relation, and any relation with a hash tier or a dedup
      table whose cells the renaming changed, gets the state a bulk
      load leaves: its base tier rebuilt over all its rows, an empty
      hash tier and no dedup table.  Any other relation keeps its base
      tier: the renaming keeps id order.
    The persistent image is dropped, and adds stop queueing atoms for
    it, until the next {!snapshot} rebuilds it.  Nothing is copied out
    of the store: the scratch is a mark per row of each touched
    relation and a renaming over the interned terms, and rebuilt tiers
    are sized as a bulk load sizes them.  Columns keep their capacity.
    Counts [cinstance.compact.rows] (rows removed) and
    [cinstance.compact.terms] (terms dropped from the interner).
    Returns the renaming: the new id of every id a surviving row holds
    (the identity when no term was dropped), so a caller holding ids
    across the call can re-key them. *)
val remove : t -> Atom.t list -> int -> int

(** {1 Low-level columnar access}

    The raw surface compiled join plans probe ({!Plan.source_of_cinstance}).
    All of it is read-only; callers must not mutate the store while
    holding a {!Rel.t} mid-enumeration (the engines never do — matching
    and adding are separate phases of a chase step). *)

(** [find_id c term] is the dense id of [term], or [-1] when the store
    has never interned it — in which case no row contains it. *)
val find_id : t -> Term.t -> int

(** Reverse lookup; total on every id {!find_id} or {!Rel.col} can
    return. *)
val term_of_id : t -> int -> Term.t

val interner : t -> Term_interner.t

module Rel : sig
  type t

  val arity : t -> int

  (** Number of live rows; only cells with row index below this are
      meaningful. *)
  val rows : t -> int

  (** The live column arrays, one per position (length = capacity ≥
      {!rows}; do not mutate, do not read at or past {!rows}). *)
  val cols : t -> int array array

  (** [iter_posting r pos id f] applies [f] to every row index whose
      [pos]-th cell is [id], in insertion order.  A no-op for a
      never-seen id.  Internally the posting is two tiers: a binary
      search over the bulk-load permutation (rows counting-sorted by
      id per position) followed by the hash tier holding rows added
      since. *)
  val iter_posting : t -> int -> int -> (int -> unit) -> unit

  val posting_count : t -> int -> int -> int
end

(** The relation storing atoms [pred/arity], if any such atom was ever
    added. *)
val rel : t -> string -> int -> Rel.t option

(** The atom stored at a row of a relation (rebuilt through the
    interner). *)
val atom_of_row : t -> Rel.t -> int -> Atom.t

(** How many {!remove} calls have deleted rows from the store.  A
    {!Rel.t} or term id obtained while this reads [n] stays valid for as
    long as it still reads [n]. *)
val removals : t -> int
