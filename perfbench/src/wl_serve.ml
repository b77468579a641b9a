(* The [serve] workload: JSON request lines through the server's dispatch,
   in process, no sockets.  Set-up loads three sessions and cold-chases
   them.  The timed loop then cycles, per session, through [rounds]
   rounds of (assert a small batch of new facts, warm chase, joining
   query), followed by a retract of every batch and the cold chase that
   rebuilds the session.  Each cycle returns a session to its loaded
   base, so the state, and hence the work per request, is periodic.

   Checks: every reply is [ok]; a chase after an assert reports
   ["incremental": true], one after a retract [false]; assert and
   retract counts match the batches; and in the last round before each
   retract the query's answer count equals [Certain_answers] over a
   from-scratch chase of the session's base. *)

open Chase_core
open Chase_engine
open Harness
module Json = Chase_serve.Json
module Server = Chase_serve.Server

type session = {
  name : string;
  tgds : Tgd.t list;
  db : Instance.t;  (* the loaded base, renamed *)
  batch : int -> Atom.t list;  (* round [r]'s new facts *)
  query : string;
  mutable expect_count : int;  (* certain answers at the checkpoint *)
  mutable shadow : Incremental.t option;  (* traced runs: mirrors the session *)
}

type op = Assert of int | Chase | Query of int | Retract | Rebuild

let op_class = function
  | Assert _ -> "assert"
  | Chase -> "chase"
  | Query _ -> "query"
  | Retract -> "retract"
  | Rebuild -> "rebuild"

(* patients, rows, employees, rounds per cycle, entities per assert *)
let params = function
  | Tiny -> (20, 12, 12, 4, 2)
  | Full -> (400, 300, 300, 24, 4)

(* Sessions are queried every [query_every] rounds, in the last round of
   each group; with 24 rounds this puts 84% of requests in the
   sub-millisecond assert/chase band, 11% in the query band and 5% in the
   slow retract/rebuild/first-assert band, so p50 and p90 each fall
   inside a band rather than between two. *)
let query_every = 4

let sessions ~tag ~size =
  let patients, rows, employees, _, per_batch = params size in
  let module S = Chase_workload.St_mapping in
  let c fmt = Printf.ksprintf (fun s -> Term.Const (s ^ "_" ^ tag)) fmt in
  let renamed db = Instance.map (rename_atom tag) db in
  let doctors = S.doctors ~patients in
  let doctors_n = max 1 (patients / 4) in
  let join = S.join_heavy ~rows in
  let onto_tgds = Chase_parser.Parser.parse_tgds Wl_chase.ontology_src in
  let mk name tgds db batch query =
    { name; tgds; db; batch; query; expect_count = -1; shadow = None }
  in
  [|
    mk "doctors" doctors.S.tgds (renamed doctors.S.database)
      (fun r ->
        List.concat_map
          (fun j ->
            let p = c "np%d_%d" r j in
            let d = c "d%d" ((r + j) mod doctors_n) in
            [ Atom.make "patient" [ p ]; Atom.make "treats" [ d; p ] ])
          (List.init per_batch Fun.id))
      "patient_of(P,D), works_at(D,H,O) -> ans(P,H).";
    mk "join" join.S.tgds (renamed join.S.database)
      (fun r ->
        List.init per_batch (fun j -> Atom.make "a" [ c "nx%d_%d" r j; c "y%d" ((r + j) mod 20) ]))
      "out(X,W), ab(X,Z) -> ans(X,Z).";
    mk "ontology" onto_tgds
      (renamed (Chase_workload.Db_gen.unary ~pred:"employee" ~count:employees))
      (fun r -> List.init per_batch (fun j -> Atom.make "employee" [ c "ne%d_%d" r j ]))
      "member(E,T), team(T), employee(E) -> ans(E).";
  |]

let facts_text atoms = String.concat " " (List.map Chase_parser.Printer.print_fact atoms)

let line fields = Json.to_string (Json.Obj fields)

let member_is k v reply = Json.member k reply = Some v

let serve ~seed ~size =
  let st = Random.State.make [| seed; 0x5e7 |] in
  let tag = tag_of_seed seed in
  let _, _, _, rounds, _ = params size in
  let ss = sessions ~tag ~size in
  let all_batches s = List.concat (List.init rounds s.batch) in
  let line_of s id op =
    let common = [ ("id", Json.Int id); ("session", Json.Str s.name) ] in
    line
      (match op with
      | Assert r ->
          common @ [ ("op", Json.Str "assert"); ("facts", Json.Str (facts_text (s.batch r))) ]
      | Retract ->
          common @ [ ("op", Json.Str "retract"); ("facts", Json.Str (facts_text (all_batches s))) ]
      | Chase | Rebuild -> common @ [ ("op", Json.Str "chase") ]
      | Query _ -> common @ [ ("op", Json.Str "query"); ("query", Json.Str s.query) ])
  in
  let server = Server.create Server.default_config in
  let must_ok what reply =
    let j = Json.parse reply in
    if not (member_is "ok" (Json.Bool true) j) then failwith (what ^ ": " ^ reply)
  in
  Array.iter
    (fun s ->
      must_ok "load-program"
        (Server.dispatch_line server
           (line
              [ ("op", Json.Str "load-program"); ("session", Json.Str s.name);
                ("program", Json.Str (program_text st s.tgds s.db));
                ("max_steps", Json.Int 1_000_000); ("max_facts", Json.Int 10_000_000);
                ("max_wall_ms", Json.Int 600_000) ]));
      must_ok "cold chase" (Server.dispatch_line server (line_of s 0 Chase));
      (* the certain answers at the checkpoint, from scratch *)
      let base = List.fold_left (fun i a -> Instance.add a i) s.db (all_batches s) in
      let q = Chase_query.Conjunctive_query.parse s.query in
      s.expect_count <-
        List.length
          (Chase_query.Certain_answers.compute ~max_steps:1_000_000 ~tgds:s.tgds ~database:base q)
            .Chase_query.Certain_answers.answers)
    ss;
  (* one cycle: per round, each session asserts, chases and queries; then
     each session retracts every batch and rebuilds *)
  let each_session ops = List.concat_map ops (List.init (Array.length ss) Fun.id) in
  let cycle =
    Array.of_list
      (List.concat
         (List.init rounds (fun r ->
              each_session (fun k ->
                  [ (k, Assert r); (k, Chase) ]
                  @ if r mod query_every = query_every - 1 then [ (k, Query r) ] else [])))
      @ each_session (fun k -> [ (k, Retract); (k, Rebuild) ]))
  in
  let sizes =
    String.concat ", "
      (Array.to_list
         (Array.map
            (fun s ->
              Printf.sprintf "%s: %d base facts, %d facts per assert, %d rounds" s.name
                (Instance.cardinal s.db)
                (List.length (s.batch 0))
                rounds)
            ss))
  in
  (* traced requests replay their layers on a shadow [Incremental.t] per
     session; the traced half starts at a pass boundary, where every
     session is back at its loaded base *)
  let start_trace () =
    Array.iter
      (fun s ->
        let inc = Incremental.create s.tgds s.db in
        ignore (Incremental.chase ~max_steps:1_000_000 inc);
        s.shadow <- Some inc)
      ss
  in
  let replay_layers s op req =
    let inc = Option.get s.shadow in
    ignore (Trace.replay "serve.decode" (fun () -> Chase_serve.Protocol.of_json (Json.parse req)));
    let parse_facts atoms =
      let text = facts_text atoms in
      Trace.add "parse.bytes" (float_of_int (String.length text));
      Trace.replay "parse" (fun () ->
          Instance.to_list (Chase_parser.Program.database (Chase_parser.Parser.parse_program text)))
    in
    match op with
    | Assert r ->
        let atoms = parse_facts (s.batch r) in
        ignore (Trace.replay "snapshot" (fun () -> Incremental.instance inc));
        ignore (Trace.replay "incremental.assert" (fun () -> Incremental.assert_atoms inc atoms))
    | Retract ->
        let atoms = parse_facts (all_batches s) in
        ignore (Trace.replay "incremental.retract" (fun () -> Incremental.retract_atoms inc atoms))
    | Chase | Rebuild ->
        ignore
          (Trace.replay "incremental.chase" (fun () ->
               Incremental.chase ~max_steps:1_000_000 inc))
    | Query _ ->
        Trace.add "parse.bytes" (float_of_int (String.length s.query));
        let q = Trace.replay "parse" (fun () -> Chase_query.Conjunctive_query.parse s.query) in
        let inst = Trace.replay "snapshot" (fun () -> Incremental.instance inc) in
        ignore
          (Trace.replay "query.eval" (fun () -> Chase_query.Conjunctive_query.answers q inst))
  in
  let chased ~incremental j =
    member_is "incremental" (Json.Bool incremental) j
    && member_is "status" (Json.Str "terminated") j
  in
  let check s op reply =
    let j = Json.parse reply in
    let int k = Json.to_int_opt (Json.member k j) in
    member_is "ok" (Json.Bool true) j
    &&
    match op with
    | Assert r -> int "added" = Some (List.length (s.batch r))
    | Chase -> chased ~incremental:true j
    | Rebuild -> chased ~incremental:false j
    | Retract -> int "removed" = Some (List.length (all_batches s))
    | Query r -> r < rounds - 1 || int "count" = Some s.expect_count
  in
  let request ~traced i =
    let k, op = cycle.(i mod Array.length cycle) in
    let s = ss.(k) in
    let req = line_of s (i + 1) op in
    (* [Server.dispatch_line] is [Json.to_string] of [Server.dispatch];
       timing the two halves separately gives the render time in-request *)
    let body () =
      let w0 = alloc_words () in
      let t0 = now () in
      let reply = Server.dispatch server req in
      let t1 = now () in
      let text = Json.to_string reply in
      let t2 = now () in
      (text, t0, t1, t2, alloc_words () -. w0)
    in
    let reply, t0, t1, t2, words = if traced then Trace.in_sink body else body () in
    if traced then begin
      Trace.layer "serve.render" ((t2 -. t1) *. 1000.);
      replay_layers s op req
    end;
    { cls = op_class op; ms = (t2 -. t0) *. 1000.; words; ok = check s op reply; unknown = false }
  in
  let corrupt () = ss.(0).expect_count <- ss.(0).expect_count + 1 in
  { sizes; cycle = Array.length cycle; request; start_trace; statistic = Least; fresh_heap = false; corrupt }
