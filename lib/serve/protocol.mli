(** The [chasectl serve] wire protocol: request vocabulary and error
    codes.  One JSON object per line in each direction; the complete
    reference with examples lives in docs/SERVICE.md, and
    [test/suite_serve.ml] fails if any variant of {!names} is missing
    from that document. *)

(** Per-session budget overrides carried by [load-program]; [None]
    fields inherit the server defaults. *)
type budgets_override = {
  max_steps : int option;
  max_facts : int option;
  max_wall_ms : float option;
}

val no_override : budgets_override

type t =
  | Load_program of {
      session : string;
      program : string;
      budgets : budgets_override;
      backend : Chase_engine.Store.backend option;
          (** optional ["backend"] field, ["columnar"] or its alias
              ["compiled"] (echoed as given); [None] inherits the server
              default *)
    }
  | Assert_facts of { session : string; facts : string }
  | Retract of { session : string; facts : string }
  | Chase of { session : string; max_steps : int option }
  | Query of { session : string; query : string }
  | Classify of { session : string }
  | Decide of {
      session : string;
      portfolio : bool;
          (** race all procedures valid for the class instead of the
              fixed dispatch (optional ["portfolio"] field) *)
      max_states : int option;
          (** sticky Büchi state budget per component (["max_states"]);
              [None] inherits the decider default *)
      max_depth : int option;
          (** guarded divergence-search depth budget (["max_depth"]);
              [None] inherits the decider default *)
    }
  | Stats of { session : string }
  | Close of { session : string }

(** The wire name of every request the server accepts, in documented
    order. *)
val names : string list

val op_name : t -> string
val session_of : t -> string

type error_code =
  | Invalid_json
  | Invalid_request
  | Parse_error
  | Unknown_session
  | Busy
  | Budget_exhausted
  | Not_saturated
  | Line_too_long
  | Internal

(** Stable wire name ("invalid-json", "busy", …). *)
val error_code_name : error_code -> string

type 'a decoded = Ok of 'a | Fail of error_code * string

(** The session name used when a request omits the field. *)
val default_session : string

(** Decode one parsed request line. *)
val of_json : Json.t -> t decoded

(** The request's [id] field, echoed verbatim into replies. *)
val id_of : Json.t -> Json.t option
