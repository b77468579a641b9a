(** A parsed program: a TGD set together with a database of facts. *)

open Chase_core

type t

val empty : t

(** The program with these TGDs, in this order, and this database. *)
val make : tgds:Tgd.t list -> database:Instance.t -> t

val tgds : t -> Tgd.t list
val database : t -> Instance.t

(** Appends the TGD after the existing ones (linear in their number;
    build long programs with {!make}). *)
val add_tgd : Tgd.t -> t -> t
val add_fact : Atom.t -> t -> t

(** The combined schema of the TGDs and facts.
    @raise Schema.Arity_mismatch on inconsistent arities. *)
val schema : t -> Schema.t
