(** Dense term interning for the columnar fact store.

    Maps ground terms (constants and nulls) to consecutive integer ids,
    with O(1) reverse lookup, so {!Cinstance} can store relations as
    flat integer columns and join plans can compare ids instead of
    walking [Term.t] structure — while snapshots, derivations and
    null-renaming homomorphism checks keep working on the original
    terms via {!term_of}.

    Ids are assigned in first-intern order starting at 0 and are never
    reused, so they are stable for the lifetime of the interner.

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
