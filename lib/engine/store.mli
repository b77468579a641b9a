(** Loading the fact store that every store engine chases over
    ({!Frontier.load}): the interned columnar {!Chase_core.Cinstance}.
    The [`Naive] backend has no mutable store (it chases the persistent
    instance directly), hence the narrower backend type here. *)

open Chase_core

(** The backends that own a mutable store.  Both tags name the one
    columnar store; ["compiled"] is kept as an alias of ["columnar"]
    on every surface that accepts a backend name. *)
type backend = [ `Compiled | `Columnar ]

type t = {
  facts : Cinstance.t;
  source : Plan.source;  (** [facts] as a plan source *)
}

(** A fresh store loaded with the database, inside an [Obs] span
    ["store.load"].  The backend tag selects nothing: both name the
    columnar store. *)
val of_instance : backend -> Instance.t -> t

(** {!Backend.of_name} restricted to store-backed backends: ["naive"]
    parses but is rejected with a message naming the valid choices —
    used by surfaces (incremental sessions) that cannot run naive. *)
val backend_of_name : string -> (backend, string) result
