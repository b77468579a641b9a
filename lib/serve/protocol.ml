(* The chasectl serve wire protocol: request decoding and the reply
   vocabulary.  One JSON object per line in, one per line out; the
   complete reference, with examples for every variant below, lives in
   docs/SERVICE.md — test/suite_serve.ml enumerates [names] and fails
   if the document misses one. *)

type budgets_override = {
  max_steps : int option;  (* per chase call *)
  max_facts : int option;  (* instance-cardinality cap *)
  max_wall_ms : float option;  (* per request *)
}

let no_override = { max_steps = None; max_facts = None; max_wall_ms = None }

type t =
  | Load_program of {
      session : string;
      program : string;
      budgets : budgets_override;
      backend : Chase_engine.Store.backend option;
    }
  | Assert_facts of { session : string; facts : string }
  | Retract of { session : string; facts : string }
  | Chase of { session : string; max_steps : int option }
  | Query of { session : string; query : string }
  | Classify of { session : string }
  | Decide of {
      session : string;
      portfolio : bool;  (* race all valid procedures instead of fixed dispatch *)
      max_states : int option;  (* sticky Büchi state budget, per component *)
      max_depth : int option;  (* guarded divergence-search depth budget *)
    }
  | Stats of { session : string }
  | Close of { session : string }

(* Wire names, in the order documented in docs/SERVICE.md.  Keep this
   list in lockstep with the variant above: [of_json] dispatches on it
   and the suite_serve documentation test enumerates it. *)
let names =
  [
    "load-program"; "assert"; "retract"; "chase"; "query"; "classify"; "decide"; "stats";
    "close";
  ]

let op_name = function
  | Load_program _ -> "load-program"
  | Assert_facts _ -> "assert"
  | Retract _ -> "retract"
  | Chase _ -> "chase"
  | Query _ -> "query"
  | Classify _ -> "classify"
  | Decide _ -> "decide"
  | Stats _ -> "stats"
  | Close _ -> "close"

let session_of = function
  | Load_program { session; _ }
  | Assert_facts { session; _ }
  | Retract { session; _ }
  | Chase { session; _ }
  | Query { session; _ }
  | Classify { session }
  | Decide { session; _ }
  | Stats { session }
  | Close { session } -> session

(* --- error codes ---------------------------------------------------- *)

type error_code =
  | Invalid_json  (* the line is not a JSON object *)
  | Invalid_request  (* JSON fine, but not a well-formed request *)
  | Parse_error  (* program/facts/query surface-syntax error *)
  | Unknown_session
  | Busy  (* admission control refused the request *)
  | Budget_exhausted  (* a hard session budget refused the request *)
  | Not_saturated  (* query on a session whose chase is incomplete *)
  | Line_too_long  (* a request line over the server's byte cap *)
  | Internal

let error_code_name = function
  | Invalid_json -> "invalid-json"
  | Invalid_request -> "invalid-request"
  | Parse_error -> "parse-error"
  | Unknown_session -> "unknown-session"
  | Busy -> "busy"
  | Budget_exhausted -> "budget-exhausted"
  | Not_saturated -> "not-saturated"
  | Line_too_long -> "line-too-long"
  | Internal -> "internal"

(* --- decoding ------------------------------------------------------- *)

type 'a decoded = Ok of 'a | Fail of error_code * string

let default_session = "default"

let of_json json =
  match json with
  | Json.Obj _ -> (
      let str k = Json.to_str_opt (Json.member k json) in
      let session = Option.value (str "session") ~default:default_session in
      let required k of_req =
        match str k with
        | Some v -> of_req v
        | None -> Fail (Invalid_request, Printf.sprintf "missing required string field %S" k)
      in
      match str "op" with
      | None -> Fail (Invalid_request, "missing required string field \"op\"")
      | Some "load-program" ->
          required "program" (fun program ->
              let budgets =
                {
                  max_steps = Json.to_int_opt (Json.member "max_steps" json);
                  max_facts = Json.to_int_opt (Json.member "max_facts" json);
                  max_wall_ms = Json.to_float_opt (Json.member "max_wall_ms" json);
                }
              in
              match str "backend" with
              | None -> Ok (Load_program { session; program; budgets; backend = None })
              | Some b -> (
                  match Chase_engine.Store.backend_of_name b with
                  | Stdlib.Ok backend ->
                      Ok (Load_program { session; program; budgets; backend = Some backend })
                  | Stdlib.Error msg ->
                      Fail (Invalid_request, Printf.sprintf "field \"backend\": %s" msg)))
      | Some "assert" -> required "facts" (fun facts -> Ok (Assert_facts { session; facts }))
      | Some "retract" -> required "facts" (fun facts -> Ok (Retract { session; facts }))
      | Some "chase" ->
          Ok (Chase { session; max_steps = Json.to_int_opt (Json.member "max_steps" json) })
      | Some "query" -> required "query" (fun query -> Ok (Query { session; query }))
      | Some "classify" -> Ok (Classify { session })
      | Some "decide" ->
          Ok
            (Decide
               {
                 session;
                 portfolio =
                   Option.value ~default:false (Json.to_bool_opt (Json.member "portfolio" json));
                 max_states = Json.to_int_opt (Json.member "max_states" json);
                 max_depth = Json.to_int_opt (Json.member "max_depth" json);
               })
      | Some "stats" -> Ok (Stats { session })
      | Some "close" -> Ok (Close { session })
      | Some op ->
          Fail
            ( Invalid_request,
              Printf.sprintf "unknown op %S (expected one of: %s)" op (String.concat ", " names)
            ))
  | _ -> Fail (Invalid_request, "request must be a JSON object")

(* The request id, echoed verbatim into the reply (any JSON scalar). *)
let id_of json = match json with Json.Obj _ -> Json.member "id" json | _ -> None
