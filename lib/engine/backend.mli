(** The chase backends, with the one shared name parser every consumer
    ([chasectl run]/[fuzz]/[serve], the fuzz oracle, bench) goes
    through — so an unknown backend name produces the same error
    everywhere. *)

(** [`Naive]: generic homomorphism search over the persistent instance,
    the reference the other backend is tested against.  [`Compiled] and
    [`Columnar] name one backend under two names: compiled join plans
    over the interned, columnar {!Chase_core.Cinstance}.  Both
    backends produce identical derivations (property-tested and
    fuzzed). *)
type t = [ `Naive | `Compiled | `Columnar ]

(** In canonical order: naive, compiled, columnar. *)
val all : t list

(** Stable lowercase name: ["naive"], ["compiled"], ["columnar"]. *)
val name : t -> string

(** Inverse of {!name}; [Error] carries the message used verbatim by
    every CLI surface. *)
val of_name : string -> (t, string) result
