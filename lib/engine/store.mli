(** The mutable-store seam of the engines: one record of operations
    over whichever fact store a backend uses, so
    [Restricted]/[Oblivious]/[Incremental] run the same loop over the
    Hashtbl-backed {!Chase_core.Minstance} ([`Compiled]) and the
    columnar interned {!Chase_core.Cinstance} ([`Columnar]).  The
    [`Naive] backend has no mutable store (it chases the persistent
    instance directly), hence the narrower backend type here. *)

open Chase_core

(** The backends that own a mutable store. *)
type backend = [ `Compiled | `Columnar ]

type t = {
  backend : backend;
  add : Atom.t -> bool;  (** insert; [true] when the atom is new *)
  mem : Atom.t -> bool;
  cardinal : unit -> int;
  snapshot : unit -> Instance.t;
  remove : Atom.t list -> unit;
      (** delete the given atoms in place; the persistent image is
          rebuilt by the next [snapshot] *)
  source : Plan.source;  (** what compiled plans probe *)
}

val of_minstance : Minstance.t -> t
val of_cinstance : Cinstance.t -> t

(** A fresh store of the given backend, loaded with the database,
    inside an [Obs] span ["store.load"]. *)
val of_instance : backend -> Instance.t -> t

(** {!Backend.of_name} restricted to store-backed backends: ["naive"]
    parses but is rejected with a message naming the valid choices —
    used by surfaces (incremental sessions) that cannot run naive. *)
val backend_of_name : string -> (backend, string) result
