(** Dense term interning for the columnar fact store.

    Maps ground terms (constants and nulls) to consecutive integer ids,
    with O(1) reverse lookup, so {!Cinstance} can store relations as
    flat integer columns and join plans can compare ids instead of
    walking [Term.t] structure — while snapshots, derivations and
    null-renaming homomorphism checks keep working on the original
    terms via {!term_of}.

    Ids are assigned in first-intern order starting at 0.  An id lives
    until the next {!compact}, which renumbers the surviving terms
    densely (keeping their order) and drops the rest; between
    compactions ids are never reused.

    The forward table is a flat open-addressing [int array], probed
    linearly from the term's hash.  Each slot packs the hash beside the
    id, so a probe reads the reverse array (to check equality) only on
    a full hash match, and growing the table re-places slots without
    rehashing terms.  Each call hashes its term once, and interning a
    new term costs one probe and two array writes — no per-entry
    allocation. *)

type t

(** A fresh interner.  [size_hint] is the number of distinct terms the
    tables hold before their first growth; growth past it is
    transparent and keeps every id. *)
val create : ?size_hint:int -> unit -> t

(** [intern t term] returns the id of [term], assigning the next dense
    id on first sight.  Mutates the interner — never call it from the
    read-only plan runtime (see {!find}). *)
val intern : t -> Term.t -> int

(** [find t term] is the id of [term], or [-1] when it was never
    interned.  Read-only, so safe to call concurrently with other
    reads (the parallel activity scan relies on this). *)
val find : t -> Term.t -> int

val find_opt : t -> Term.t -> int option

(** [term_of t id] is the term with the given id.
    @raise Invalid_argument when [id] was never assigned. *)
val term_of : t -> int -> Term.t

(** Number of interned terms (= the next fresh id). *)
val cardinal : t -> int

(** [compact t live] keeps the terms whose id [live] marks (a nonzero
    byte at that index; [live] covers ids below {!cardinal}), renumbers
    them densely in their old order, and returns the renaming: the new
    id of each old id, or [-1] for a dropped one.  Since the order is
    kept, the renaming is monotone.  Slots are re-placed from the hashes
    packed in them, so no term is hashed, and the slot table shrinks to
    fit the survivors.  Every id handed out before the call is stale
    afterwards: translate it through the returned array or look the
    term up again. *)
val compact : t -> Bytes.t -> int array
