(** A named serve-side session: a resumable chase state with hard
    budgets and a per-session stats sink.  See docs/SERVICE.md for the
    budget semantics on the wire. *)

open Chase_core

type budgets = {
  max_steps : int;  (** per chase call *)
  max_facts : int;  (** instance-cardinality cap *)
  max_wall_ms : float;  (** per chase call, polled every 32 steps *)
}

val default_budgets : budgets

(** Apply a [load-program] override on top of the server defaults. *)
val resolve_budgets : defaults:budgets -> Protocol.budgets_override -> budgets

(** What the last [chase] request did — the `stats` reply's
    [last_chase] object. *)
type chase_record = {
  steps : int;
  incremental : bool;
  saturated : bool;
  limit : Chase_engine.Incremental.limit option;
  wall_ms : float;
}

type t

(** [backend] (default [`Columnar]) is the tag the session reports; both
    tags name the one columnar store — see {!Chase_engine.Store.backend}. *)
val create :
  name:string ->
  budgets:budgets ->
  ?backend:Chase_engine.Store.backend ->
  Tgd.t list ->
  Instance.t ->
  t

val name : t -> string

(** The store backend tag this session was created with. *)
val backend : t -> Chase_engine.Store.backend
val budgets : t -> budgets
val incremental : t -> Chase_engine.Incremental.t
val stats : t -> Obs.Stats.t
val last_chase : t -> chase_record option

(** Run [f] under this session's stats sink, teed with the sink already
    installed (if any) so signals also reach [--stats]/[--trace-json]. *)
val with_obs : t -> (unit -> 'a) -> 'a

(** A budgeted chase call: [max_steps] (capped by the session budget),
    the session's wall deadline, and its fact cap. *)
val chase : ?epool:Chase_exec.Pool.t -> ?max_steps:int -> t -> chase_record

val assert_atoms : t -> Atom.t list -> int
val retract_atoms : t -> Atom.t list -> int
