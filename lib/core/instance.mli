(** Instances (paper §2): finite sets of atoms over constants and nulls,
    persistent and indexed by predicate (and, on demand, by term).  A
    {e database} is an instance whose atoms are facts (constants only). *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int

val mem : Atom.t -> t -> bool
val add : Atom.t -> t -> t
val remove : Atom.t -> t -> t
val singleton : Atom.t -> t

val of_list : Atom.t list -> t
val of_seq : Atom.t Seq.t -> t
val to_list : t -> Atom.t list
val to_set : t -> Atom.Set.t

val fold : (Atom.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Atom.t -> unit) -> t -> unit
val for_all : (Atom.t -> bool) -> t -> bool
val exists : (Atom.t -> bool) -> t -> bool
val filter : (Atom.t -> bool) -> t -> t
val map : (Atom.t -> Atom.t) -> t -> t

val union : t -> t -> t
val diff : t -> t -> t
val inter : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** Atoms with the given predicate (uses the per-predicate index). *)
val with_pred : t -> string -> Atom.t list

val with_pred_set : t -> string -> Atom.Set.t
val pred_count : t -> string -> int

(** Atoms with the given term at the given 0-based position (secondary
    index; used to prune homomorphism candidates).  The index slice of a
    (predicate, position) is built by its first probe on an instance and
    kept up to date by [add]/[remove] on instances derived afterwards;
    each build emits [instance.index.build] and [instance.index.atoms]. *)
val with_pred_pos_term : t -> string -> int -> Term.t -> Atom.Set.t

(** Predicates occurring in the instance, sorted. *)
val preds : t -> string list

(** dom(I): the set of terms occurring in the instance. *)
val active_domain : t -> Term.Set.t

val constants : t -> Term.Set.t
val nulls : t -> Term.Set.t

(** True when every atom is a fact, i.e. the instance is a database. *)
val is_database : t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit
