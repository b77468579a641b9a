(* The serve loop: a registry of named sessions driven by JSON-lines
   requests (docs/SERVICE.md).  One request per input line, exactly one
   reply per request, errors as structured replies — a malformed line
   or a hostile program must never kill the server.

   Admission control: the number of live sessions is capped ([busy]
   reply beyond it), every chase call runs under the session's
   step/fact/wall budgets ([budget-exhausted] status or reply), and the
   decider runs with its own bounded state budgets — so no single
   session can starve the shared [Chase_exec] pool. *)

open Chase_core
module Exec = Chase_exec.Pool
module P = Protocol

type config = {
  max_sessions : int;
  defaults : Session.budgets;
  backend : Chase_engine.Store.backend;
}

let default_config =
  { max_sessions = 64; defaults = Session.default_budgets; backend = `Columnar }

let max_line_bytes = 16 * 1024 * 1024

type t = {
  config : config;
  epool : Exec.t;
  sessions : (string, Session.t) Hashtbl.t;
}

let create ?(epool = Exec.inline) config = { config; epool; sessions = Hashtbl.create 16 }

let session_count t = Hashtbl.length t.sessions

(* --- reply construction --------------------------------------------- *)

(* Every reply echoes the request id (when present), carries "ok", and
   names the op and session it answers — so a client multiplexing
   sessions over one connection can route replies without state. *)
let reply ?id ?op ?session ~ok fields =
  let base =
    Option.to_list (Option.map (fun id -> ("id", id)) id)
    @ [ ("ok", Json.Bool ok) ]
    @ Option.to_list (Option.map (fun op -> ("op", Json.Str op)) op)
    @ Option.to_list (Option.map (fun s -> ("session", Json.Str s)) session)
  in
  Json.Obj (base @ fields)

let error_reply ?id ?op ?session ?position code msg =
  Obs.incr "serve.errors";
  let position_fields =
    match position with
    | Some (line, col) -> [ ("line", Json.Int line); ("col", Json.Int col) ]
    | None -> []
  in
  reply ?id ?op ?session ~ok:false
    [
      ( "error",
        Json.Obj
          ([ ("code", Json.Str (P.error_code_name code)); ("msg", Json.Str msg) ]
          @ position_fields) );
    ]

exception Request_error of {
  code : P.error_code;
  msg : string;
  position : (int * int) option;
}

let fail ?position code fmt =
  Format.kasprintf (fun msg -> raise (Request_error { code; msg; position })) fmt

(* Surface-syntax parsing with protocol-level positioned errors. *)
let parse_program_payload what src =
  match Chase_parser.Parser.parse_program src with
  | p -> p
  | exception Chase_parser.Parser.Error { line; col; msg } ->
      fail ~position:(line, col) P.Parse_error "%s: %s" what msg
  | exception Chase_parser.Lexer.Error { line; col; msg } ->
      fail ~position:(line, col) P.Parse_error "%s: %s" what msg

let parse_facts_payload what src =
  let p = parse_program_payload what src in
  if Chase_parser.Program.tgds p <> [] then
    fail P.Invalid_request "%s must contain only facts, found a TGD" what;
  Instance.to_list (Chase_parser.Program.database p)

let find_session t name =
  match Hashtbl.find_opt t.sessions name with
  | Some s -> s
  | None -> fail P.Unknown_session "no session named %S (load-program creates one)" name

(* --- per-request handlers ------------------------------------------- *)

let limit_field = function
  | None -> []
  | Some l -> [ ("limit", Json.Str (Chase_engine.Incremental.limit_name l)) ]

let status_str saturated = if saturated then "terminated" else "budget-exhausted"

let chase_fields (r : Session.chase_record) inc =
  [
    ("status", Json.Str (status_str r.Session.saturated));
    ("steps", Json.Int r.Session.steps);
    ("incremental", Json.Bool r.Session.incremental);
    ("facts", Json.Int (Chase_engine.Incremental.cardinal inc));
    ("pending", Json.Int (Chase_engine.Incremental.pending inc));
  ]
  @ limit_field r.Session.limit
  @ [ ("wall_ms", Json.Float r.Session.wall_ms) ]

let handle_load t ~session ~program ~budgets ~backend =
  let fresh = not (Hashtbl.mem t.sessions session) in
  if fresh && session_count t >= t.config.max_sessions then
    fail P.Busy "session table is full (%d sessions); close one or raise --max-sessions"
      t.config.max_sessions;
  let p = parse_program_payload "program" program in
  let tgds = Chase_parser.Program.tgds p in
  let db = Chase_parser.Program.database p in
  let budgets = Session.resolve_budgets ~defaults:t.config.defaults budgets in
  if Instance.cardinal db > budgets.Session.max_facts then
    fail P.Budget_exhausted "program carries %d facts, over the session's max_facts %d"
      (Instance.cardinal db) budgets.Session.max_facts;
  let backend = Option.value backend ~default:t.config.backend in
  let s = Session.create ~name:session ~budgets ~backend tgds db in
  Hashtbl.replace t.sessions session s;
  Obs.gauge "serve.sessions" (session_count t);
  [
    ("tgds", Json.Int (List.length tgds));
    ("facts", Json.Int (Instance.cardinal db));
    ("backend", Json.Str (Chase_engine.Backend.name (backend :> Chase_engine.Backend.t)));
    ("fresh", Json.Bool fresh);
  ]

let handle_assert t ~session ~facts =
  let s = find_session t session in
  let atoms = parse_facts_payload "facts" facts in
  let inc = Session.incremental s in
  let cap = (Session.budgets s).Session.max_facts in
  (* Count only atoms the instance doesn't already hold (deduplicated),
     so an idempotent re-assert near — or past, since a chase step can
     overshoot the cap by its last atom — the cap isn't spuriously
     refused: adding nothing is always admissible. *)
  let fresh =
    List.filter (fun a -> not (Chase_engine.Incremental.mem inc a)) atoms
    |> List.sort_uniq Atom.compare
  in
  if fresh <> [] && Chase_engine.Incremental.cardinal inc + List.length fresh > cap then
    fail P.Budget_exhausted
      "asserting %d new facts would push the instance over max_facts %d (currently %d atoms)"
      (List.length fresh) cap
      (Chase_engine.Incremental.cardinal inc);
  let added = Session.assert_atoms s atoms in
  [
    ("added", Json.Int added);
    ("facts", Json.Int (Chase_engine.Incremental.cardinal inc));
    ("pending", Json.Int (Chase_engine.Incremental.pending inc));
  ]

let handle_retract t ~session ~facts =
  let s = find_session t session in
  let atoms = parse_facts_payload "facts" facts in
  let inc = Session.incremental s in
  let removed = Session.retract_atoms s atoms in
  [
    ("removed", Json.Int removed);
    ("facts", Json.Int (Chase_engine.Incremental.cardinal inc));
    ("rechase", Json.Str (if removed > 0 then "delta" else "none"));
  ]

let handle_chase t ~session ~max_steps =
  let s = find_session t session in
  let r = Session.chase ~epool:t.epool ?max_steps s in
  chase_fields r (Session.incremental s)

let handle_query t ~session ~query =
  let s = find_session t session in
  let inc = Session.incremental s in
  if not (Chase_engine.Incremental.saturated inc) then
    fail P.Not_saturated
      "certain answers need a saturated session: run `chase` until status is \"terminated\"";
  let q =
    match Chase_query.Conjunctive_query.parse query with
    | q -> q
    | exception Chase_parser.Parser.Error { line; col; msg } ->
        fail ~position:(line, col) P.Parse_error "query: %s" msg
    | exception Chase_parser.Lexer.Error { line; col; msg } ->
        fail ~position:(line, col) P.Parse_error "query: %s" msg
    | exception Invalid_argument msg -> fail P.Parse_error "query: %s" msg
  in
  let answers =
    Session.with_obs s (fun () ->
        Chase_query.Conjunctive_query.answers_on q (Chase_engine.Incremental.source inc))
    |> List.filter (List.for_all Term.is_const)
  in
  [
    ( "answers",
      Json.Arr
        (List.map (fun tuple -> Json.Arr (List.map (fun t -> Json.Str (Term.to_string t)) tuple))
           answers) );
    ("count", Json.Int (List.length answers));
  ]

let handle_classify t ~session =
  let s = find_session t session in
  let r =
    Session.with_obs s (fun () ->
        Chase_classes.Classification.classify (Chase_engine.Incremental.tgds (Session.incremental s)))
  in
  let open Chase_classes.Classification in
  [
    ("tgds", Json.Int r.tgd_count);
    ("max_arity", Json.Int r.max_arity);
    ("single_head", Json.Bool r.single_head);
    ("linear", Json.Bool r.linear);
    ("guarded", Json.Bool r.guarded);
    ("sticky", Json.Bool r.sticky);
    ("weakly_acyclic", Json.Bool r.weakly_acyclic);
    ("jointly_acyclic", Json.Bool r.jointly_acyclic);
  ]

let handle_decide t ~session ~portfolio ~max_states ~max_depth =
  let s = find_session t session in
  let open Chase_termination.Decider in
  let report =
    Session.with_obs s (fun () ->
        let tgds = Chase_engine.Incremental.tgds (Session.incremental s) in
        (* The deciders compile through [Plan.of_tgd]; scoping keeps
           their plans out of the process-wide cache.  Budget overruns
           surface as Unknown answers (the deciders return
           Inconclusive / No_divergence_found), never as exceptions
           escaping the session. *)
        Chase_engine.Plan.scoped @@ fun () ->
        if portfolio then
          decide_portfolio ?sticky_max_states:max_states ?guarded_max_depth:max_depth
            ~pool:t.epool tgds
        else decide ?sticky_max_states:max_states ?guarded_max_depth:max_depth ~pool:t.epool tgds)
  in
  let answer_str = function
    | Terminating -> "terminating"
    | Non_terminating -> "non-terminating"
    | Unknown -> "unknown"
  in
  [
    ("answer", Json.Str (answer_str report.answer));
    ("method", Json.Str (method_name report.method_used));
    ("detail", Json.Str report.detail);
  ]
  @
  if report.procedures = [] then []
  else
    [
      ( "procedures",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.Str (method_name p.procedure));
                   ("outcome", Json.Str (answer_str p.outcome));
                   ("conclusive", Json.Bool p.conclusive);
                   ("cancelled", Json.Bool p.cancelled);
                   ("wall_ms", Json.Float p.wall_ms);
                   ("note", Json.Str p.note);
                 ])
             report.procedures) );
    ]

let handle_stats t ~session =
  let s = find_session t session in
  let inc = Session.incremental s in
  let b = Session.budgets s in
  let stats = Session.stats s in
  let last =
    match Session.last_chase s with
    | None -> Json.Null
    | Some r ->
        Json.Obj
          ([
             ("steps", Json.Int r.Session.steps);
             ("incremental", Json.Bool r.Session.incremental);
             ("status", Json.Str (status_str r.Session.saturated));
           ]
          @ limit_field r.Session.limit
          @ [ ("wall_ms", Json.Float r.Session.wall_ms) ])
  in
  [
    ( "backend",
      Json.Str (Chase_engine.Backend.name (Session.backend s :> Chase_engine.Backend.t)) );
    ("facts", Json.Int (Chase_engine.Incremental.cardinal inc));
    ("base_facts", Json.Int (Instance.cardinal (Chase_engine.Incremental.base inc)));
    ("pending", Json.Int (Chase_engine.Incremental.pending inc));
    ("saturated", Json.Bool (Chase_engine.Incremental.saturated inc));
    ("warm", Json.Bool (Chase_engine.Incremental.warm inc));
    ("steps_total", Json.Int (Chase_engine.Incremental.steps_total inc));
    ("chases", Json.Int (Chase_engine.Incremental.chases inc));
    ("rebuilds", Json.Int (Chase_engine.Incremental.retractions inc));
    ("last_chase", last);
    ( "budgets",
      Json.Obj
        [
          ("max_steps", Json.Int b.Session.max_steps);
          ("max_facts", Json.Int b.Session.max_facts);
          ("max_wall_ms", Json.Float b.Session.max_wall_ms);
        ] );
    ( "counters",
      Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Obs.Stats.counters stats)) );
    ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Obs.Stats.gauges stats)));
  ]

let handle_close t ~session =
  ignore (find_session t session);
  Hashtbl.remove t.sessions session;
  Obs.gauge "serve.sessions" (session_count t);
  [ ("sessions", Json.Int (session_count t)) ]

(* --- dispatch ------------------------------------------------------- *)

let handle t req =
  match req with
  | P.Load_program { session; program; budgets; backend } ->
      handle_load t ~session ~program ~budgets ~backend
  | P.Assert_facts { session; facts } -> handle_assert t ~session ~facts
  | P.Retract { session; facts } -> handle_retract t ~session ~facts
  | P.Chase { session; max_steps } -> handle_chase t ~session ~max_steps
  | P.Query { session; query } -> handle_query t ~session ~query
  | P.Classify { session } -> handle_classify t ~session
  | P.Decide { session; portfolio; max_states; max_depth } ->
      handle_decide t ~session ~portfolio ~max_states ~max_depth
  | P.Stats { session } -> handle_stats t ~session
  | P.Close { session } -> handle_close t ~session

let dispatch t line =
  Obs.incr "serve.requests";
  Obs.span "serve.request" @@ fun () ->
  match Json.parse line with
  | exception Json.Error { line; col; msg } ->
      error_reply ~position:(line, col) P.Invalid_json msg
  | json -> (
      let id = P.id_of json in
      match P.of_json json with
      | P.Fail (code, msg) -> error_reply ?id code msg
      | P.Ok req -> (
          let op = P.op_name req in
          let session = P.session_of req in
          match handle t req with
          | fields -> reply ?id ~op ~session ~ok:true fields
          | exception Request_error { code; msg; position } ->
              error_reply ?id ~op ~session ?position code msg
          | exception e ->
              error_reply ?id ~op ~session P.Internal
                (Printf.sprintf "unexpected %s" (Printexc.to_string e))))

let dispatch_line t line = Json.to_string (dispatch t line)

(* --- transports ----------------------------------------------------- *)

type line = Line of string | Too_long of int | Eof

(* Request lines are cut from chunks of the channel, [chunk.[pos..len)]
   being read and not yet consumed. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let reader ic = { ic; chunk = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 4096 }

(* One request line of at most [max_line_bytes] bytes (newline
   excluded).  A longer line is read on to its newline without being
   kept, so the next read starts at the next request. *)
let read_line r =
  Buffer.clear r.line;
  let finish n = if n > max_line_bytes then Too_long n else Line (Buffer.contents r.line) in
  let rec go n =
    if r.pos >= r.len then begin
      r.pos <- 0;
      r.len <- In_channel.input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then if n = 0 then Eof else finish n
    else begin
      let chunk = r.chunk and len = r.len in
      let i = ref r.pos in
      while !i < len && Bytes.unsafe_get chunk !i <> '\n' do
        incr i
      done;
      let room = max_line_bytes - Buffer.length r.line in
      if room > 0 then Buffer.add_subbytes r.line chunk r.pos (min room (!i - r.pos));
      let n = n + (!i - r.pos) in
      if !i < len then begin
        r.pos <- !i + 1;
        finish n
      end
      else begin
        r.pos <- len;
        go n
      end
    end
  in
  go 0

let serve_channels t ic oc =
  let r = reader ic in
  let send reply =
    Out_channel.output_string oc (Json.to_string reply);
    Out_channel.output_char oc '\n';
    Out_channel.flush oc
  in
  let rec go () =
    match read_line r with
    | Eof -> ()
    | Line line ->
        if String.trim line <> "" then send (dispatch t line);
        go ()
    | Too_long n ->
        Obs.incr "serve.requests";
        send
          (error_reply P.Line_too_long
             (Printf.sprintf "request line of %d bytes is over the %d-byte cap; skipped" n
                max_line_bytes));
        go ()
  in
  go ()

let serve_stdio t = serve_channels t In_channel.stdin Out_channel.stdout

(* One connection at a time: requests from a second client queue in the
   listen backlog until the first disconnects.  Sessions survive across
   connections — the registry belongs to the server, not the socket.

   SIGPIPE must be ignored: a client that disconnects before reading
   its replies turns the next write into EPIPE, which with the default
   disposition kills the whole process (every session lost).  Ignored,
   the write raises [Sys_error]/[Unix_error] instead, which the
   per-connection catch below absorbs. *)
let serve_socket t sock =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Unix.listen sock 16;
  let rec accept_loop () =
    let client, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr client in
    let oc = Unix.out_channel_of_descr client in
    (try serve_channels t ic oc
     with End_of_file | Sys_error _ | Unix.Unix_error (_, _, _) -> ());
    (try Unix.close client with Unix.Unix_error _ -> ());
    accept_loop ()
  in
  accept_loop ()

(* Only remove a leftover socket from a previous run — anything else at
   the path (a regular file, a directory) is the user's data and gets a
   clear error instead of a silent unlink. *)
let remove_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "refusing to bind %S: path exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let serve_unix t path =
  remove_stale_socket path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      serve_socket t sock)

let serve_tcp t port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      serve_socket t sock)
