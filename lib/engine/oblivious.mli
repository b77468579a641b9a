(** The oblivious and semi-oblivious chase (paper §3.1).

    The oblivious chase applies every trigger, active or not, that was not
    applied before; with canonical null naming (Def 3.1) its result is the
    unique instance I_{D,T}.  The semi-oblivious variant identifies
    triggers that agree on the frontier. *)

open Chase_core

type variant = Oblivious | Semi_oblivious

(** Matching backend, as in {!Restricted}: compiled plans on the
    interned columnar store ([`Compiled], the default, or its alias
    [`Columnar]), or the generic search on the persistent instance
    ([`Naive]); both run the identical application sequence. *)
type backend = Backend.t

type result = {
  instance : Instance.t;
  applications : int;
  saturated : bool;  (** false when the step budget ran out *)
}

val default_max_steps : int

(** Run the (semi-)oblivious chase to saturation or budget exhaustion.
    With an [Obs] sink installed the run reports
    [oblivious.applications] / [oblivious.enqueue] / [oblivious.dup] /
    [oblivious.fresh_atoms] counters inside an [oblivious.run] span;
    see [docs/OBSERVABILITY.md]. *)
val run :
  ?backend:backend -> ?variant:variant -> ?max_steps:int -> Tgd.t list -> Instance.t -> result

(** Whether the chase saturates within the given budget. *)
val terminates_within :
  ?backend:backend -> ?variant:variant -> max_steps:int -> Tgd.t list -> Instance.t -> bool
