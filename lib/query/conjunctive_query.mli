(** Conjunctive queries, evaluated through a {!Chase_engine.Plan}
    compiled for the query body — the consumers of chase-materialized
    instances (paper §1). *)

open Chase_core

type t

(** Build a safe CQ: every answer variable must occur in the body.
    @raise Invalid_argument otherwise, when an answer term is not a
    variable, or when the body holds a null. *)
val make : ?name:string -> answer_vars:Term.t list -> body:Atom.t list -> unit -> t

val name : t -> string
val answer_vars : t -> Term.t list
val body : t -> Atom.t list

(** A boolean query (no answer variables).
    @raise Invalid_argument when the body holds a null. *)
val boolean : ?name:string -> Atom.t list -> t

(** Surface syntax, piggybacking on the TGD parser:
    ["r(X,Y), s(Y) -> ans(X)."] — the head atom lists the answer
    variables. *)
val parse : string -> t

(** All answer tuples over a plan source — a persistent instance or a
    session's live mutable store — deduplicated and sorted by
    [List.compare Term.compare].  Tuples may hold nulls; certain answers
    filter them out.  The plan is compiled per call and not cached. *)
val answers_on : t -> Chase_engine.Plan.source -> Term.t list list

(** Boolean satisfaction over a plan source: some homomorphism maps the
    body in.  Stops at the first one. *)
val holds_on : t -> Chase_engine.Plan.source -> bool

(** {!answers_on} over a persistent instance. *)
val answers : t -> Instance.t -> Term.t list list

(** {!holds_on} over a persistent instance. *)
val holds : t -> Instance.t -> bool

val tuple_to_string : Term.t list -> string
val pp : Format.formatter -> t -> unit
