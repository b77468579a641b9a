(** Mutable, Hashtbl-backed instances — the chase engines' hot-path
    backend.  Same logical contents and secondary [(pred, pos, term)]
    index as {!Instance}, but with O(1) amortized updates and lookups,
    plus an incrementally maintained persistent snapshot: between
    removals every atom is folded into the persistent image at most
    once, so taking a snapshot after each chase step costs no more in
    total than building the persistent instance directly — and costs
    nothing at all if no snapshot is ever requested. *)

type t

(** A fresh, empty mutable instance. *)
val create : ?size_hint:int -> unit -> t

(** Mutable copy of a persistent instance. *)
val of_instance : Instance.t -> t

(** [add m a] inserts [a]; returns [true] when the atom is new. *)
val add : t -> Atom.t -> bool

val mem : t -> Atom.t -> bool
val cardinal : t -> int

(** Atoms with the given predicate, newest first. *)
val with_pred : t -> string -> Atom.t list

val pred_count : t -> string -> int

(** Atoms with the given term at the given 0-based position, newest
    first (the secondary index behind join-plan candidate pruning). *)
val with_pos_term : t -> string -> int -> Term.t -> Atom.t list

val pos_term_count : t -> string -> int -> Term.t -> int

val iter : (Atom.t -> unit) -> t -> unit

(** Persistent image of the current contents.  Amortized O(atoms added
    since the previous snapshot); the first snapshot after a {!remove}
    builds the image afresh. *)
val snapshot : t -> Instance.t

(** [remove m atoms] deletes the atoms of [atoms] the store holds (the
    others are ignored) from the membership table and the indexes:
    one pass over each touched index bucket, whose order is kept.  The
    persistent image is dropped, and adds stop queueing atoms for it,
    until the next {!snapshot} rebuilds it.  Counts [minstance.remove]
    per deleted atom. *)
val remove : t -> Atom.t list -> unit
