(** Mutable, Hashtbl-backed instances — the chase engines' hot-path
    backend.  Same logical contents and secondary [(pred, pos, term)]
    index as {!Instance}, but with O(1) amortized updates and lookups,
    plus an incrementally maintained persistent snapshot: every atom is
    folded into the persistent image at most once over the lifetime of
    the value, so taking a snapshot after each chase step costs no more
    in total than building the persistent instance directly — and costs
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
    since the previous snapshot). *)
val snapshot : t -> Instance.t

(** [snapshot_without m gone]: persistent image of the contents minus
    the atoms of [gone], built without folding those in — the previous
    snapshot minus the [gone] atoms it holds, plus the atoms added since
    that are not in [gone].  O(|gone| + atoms added since the previous
    snapshot); [m] and its own image are unchanged. *)
val snapshot_without : t -> Atom.t list -> Instance.t
