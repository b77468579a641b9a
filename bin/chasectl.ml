(* chasectl — the command-line surface of the library.

     chasectl classify FILE          class membership report
     chasectl chase FILE             run a chase engine, print the result
     chasectl decide FILE            decide all-instances restricted
                                     chase termination (the paper's problem)
     chasectl query FILE -q QUERY    certain answers via materialization
     chasectl automaton FILE         sticky Büchi automaton anatomy
     chasectl scenarios              list the built-in scenario gallery

   FILE contains TGDs and facts in the surface syntax; use '-' for stdin.

   chase, decide, automaton and ochase take --stats (counter/span summary
   on stderr) and --trace-json FILE (JSON-lines event trace; the schema
   is documented in docs/OBSERVABILITY.md). *)

open Cmdliner

let read_input path =
  if String.equal path "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_bin path In_channel.input_all

let load path =
  let src = read_input path in
  match Chase_parser.Parser.parse_program src with
  | p -> Ok p
  | exception Chase_parser.Parser.Error { line; col; msg } ->
      Error (Printf.sprintf "%s:%d:%d: %s" path line col msg)
  | exception Chase_parser.Lexer.Error { line; col; msg } ->
      Error (Printf.sprintf "%s:%d:%d: %s" path line col msg)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Program file ('-' for stdin).")

let or_die = function
  | Ok x -> x
  | Error msg ->
      prerr_endline msg;
      exit 2

(* --- observability --------------------------------------------------- *)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"After the run, print engine counters, gauges and span timings to stderr.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Write the observability event stream to $(docv) as JSON lines (one object per \
           counter/gauge/span/event; schema in docs/OBSERVABILITY.md).")

(* Run [f] with the sinks requested by --stats/--trace-json installed;
   with neither flag, no sink is installed and instrumentation stays
   near-free.  The stats table lands on stderr so stdout remains the
   machine-readable result. *)
let with_obs ~stats ~trace_json f =
  let stats_t = if stats then Some (Obs.Stats.create ()) else None in
  let trace_oc = Option.map open_out trace_json in
  let sinks =
    Option.to_list (Option.map Obs.Stats.sink stats_t)
    @ Option.to_list (Option.map Obs.Jsonl.channel_sink trace_oc)
  in
  match sinks with
  | [] -> f ()
  | first :: rest ->
      Obs.set_clock Unix.gettimeofday;
      Fun.protect
        ~finally:(fun () ->
          Option.iter close_out trace_oc;
          Option.iter (fun t -> Format.eprintf "%a@." Obs.Stats.pp t) stats_t)
        (fun () -> Obs.with_sink (List.fold_left Obs.tee first rest) f)

(* --- backends --------------------------------------------------------- *)

(* One parser for every --backend flag (chase, serve), built on
   Chase_engine.Backend.of_name so all surfaces reject unknown names
   with the same message; cmdliner attributes it to the offending
   option.  [store_backend_conv] is the restriction to store-backed
   backends for surfaces that cannot run naive (serve). *)
let backend_conv : Chase_engine.Backend.t Arg.conv =
  let parse s =
    match Chase_engine.Backend.of_name s with Ok b -> Ok b | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (Chase_engine.Backend.name b))

let store_backend_conv : Chase_engine.Store.backend Arg.conv =
  let parse s =
    match Chase_engine.Store.backend_of_name s with
    | Ok b -> Ok b
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun ppf b ->
        Format.pp_print_string ppf (Chase_engine.Backend.name (b :> Chase_engine.Backend.t)) )

let backend_arg =
  Arg.(
    value
    & opt backend_conv `Compiled
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Matching backend: $(b,compiled) (default) or its alias $(b,columnar) (compiled join \
           plans over the interned columnar store), or $(b,naive) (generic search, the \
           oracle).  Both produce bit-identical derivations.")

(* --- parallelism ------------------------------------------------------ *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run on $(docv) domains (default 1 = sequential).  Parallel runs produce \
           bit-identical derivations and verdicts; only wall-clock changes.")

(* The pool is created inside the obs scope so its pool.* signals reach
   the --stats/--trace-json sinks, and always torn down. *)
let with_jobs jobs f = Chase_exec.Pool.with_pool ~jobs f

(* --- classify -------------------------------------------------------- *)

let classify_cmd =
  let run file =
    let p = or_die (load file) in
    let report = Chase_classes.Classification.classify (Chase_parser.Program.tgds p) in
    Format.printf "%a@." Chase_classes.Classification.pp report
  in
  Cmd.v (Cmd.info "classify" ~doc:"Report class membership (guarded, sticky, …).")
    Term.(const run $ file_arg)

(* --- chase ----------------------------------------------------------- *)

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("restricted", `Restricted); ("oblivious", `Oblivious); ("semi", `Semi) ])
        `Restricted
    & info [ "engine" ] ~docv:"ENGINE" ~doc:"Chase engine: restricted, oblivious or semi.")

let strategy_arg =
  Arg.(
    value
    & opt (enum [ ("fifo", `Fifo); ("lifo", `Lifo); ("random", `Random) ]) `Fifo
    & info [ "strategy" ] ~docv:"S" ~doc:"Restricted-chase trigger strategy.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random strategy seed.")

let max_steps_arg =
  Arg.(value & opt int 10_000 & info [ "max-steps" ] ~docv:"N" ~doc:"Step budget.")

let trace_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Print the derivation trace.")

let chase_cmd =
  let run file engine backend strategy seed max_steps trace stats trace_json jobs =
    let p = or_die (load file) in
    let tgds = Chase_parser.Program.tgds p in
    let db = Chase_parser.Program.database p in
    with_obs ~stats ~trace_json @@ fun () ->
    with_jobs jobs @@ fun pool ->
    match engine with
    | `Restricted ->
        let strategy =
          match strategy with
          | `Fifo -> Chase_engine.Restricted.Fifo
          | `Lifo -> Chase_engine.Restricted.Lifo
          | `Random -> Chase_engine.Restricted.Random seed
        in
        let d = Chase_engine.Restricted.run ~backend ~strategy ~max_steps ~pool tgds db in
        if trace then Format.printf "%a@." Chase_engine.Derivation.pp d
        else begin
          Format.printf "%a@." Chase_core.Instance.pp (Chase_engine.Derivation.final d);
          Format.printf "steps: %d, status: %s@."
            (Chase_engine.Derivation.length d)
            (match Chase_engine.Derivation.status d with
            | Chase_engine.Derivation.Terminated -> "terminated"
            | Chase_engine.Derivation.Out_of_budget -> "out of budget")
        end
    | (`Oblivious | `Semi) as v ->
        let variant =
          match v with
          | `Oblivious -> Chase_engine.Oblivious.Oblivious
          | `Semi -> Chase_engine.Oblivious.Semi_oblivious
        in
        let r = Chase_engine.Oblivious.run ~backend ~variant ~max_steps tgds db in
        Format.printf "%a@." Chase_core.Instance.pp r.Chase_engine.Oblivious.instance;
        Format.printf "applications: %d, saturated: %b@." r.Chase_engine.Oblivious.applications
          r.Chase_engine.Oblivious.saturated
  in
  Cmd.v (Cmd.info "chase" ~doc:"Run a chase engine on the program's database.")
    Term.(
      const run $ file_arg $ engine_arg $ backend_arg $ strategy_arg $ seed_arg $ max_steps_arg
      $ trace_arg $ stats_arg $ trace_json_arg $ jobs_arg)

(* --- decide ---------------------------------------------------------- *)

let decide_cmd =
  let run file portfolio max_states max_depth json stats trace_json jobs =
    let p = or_die (load file) in
    let open Chase_termination.Decider in
    let report =
      with_obs ~stats ~trace_json @@ fun () ->
      with_jobs jobs @@ fun pool ->
      let tgds = Chase_parser.Program.tgds p in
      if portfolio then
        decide_portfolio ?sticky_max_states:max_states ?guarded_max_depth:max_depth ~pool tgds
      else decide ?sticky_max_states:max_states ?guarded_max_depth:max_depth ~pool tgds
    in
    let answer_str = function
      | Terminating -> "terminating"
      | Non_terminating -> "non-terminating"
      | Unknown -> "unknown"
    in
    if json then begin
      let module J = Chase_serve.Json in
      let procedures =
        if report.procedures = [] then []
        else
          [
            ( "procedures",
              J.Arr
                (List.map
                   (fun pr ->
                     J.Obj
                       [
                         ("name", J.Str (method_name pr.procedure));
                         ("outcome", J.Str (answer_str pr.outcome));
                         ("conclusive", J.Bool pr.conclusive);
                         ("cancelled", J.Bool pr.cancelled);
                         ("wall_ms", J.Float pr.wall_ms);
                         ("note", J.Str pr.note);
                       ])
                   report.procedures) );
          ]
      in
      print_endline
        (J.to_string
           (J.Obj
              ([
                 ("answer", J.Str (answer_str report.answer));
                 ("method", J.Str (method_name report.method_used));
                 ("detail", J.Str report.detail);
               ]
              @ procedures)))
    end
    else Format.printf "%a@." pp report;
    match report.answer with
    | Terminating -> exit 0
    | Non_terminating -> exit 1
    | Unknown -> exit 3
  in
  let portfolio_arg =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Race every procedure valid for the classified class (weak/joint acyclicity, MFA, \
             sticky B\xC3\xBCchi, guarded search); first conclusive answer wins.")
  in
  let max_states_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Sticky B\xC3\xBCchi state budget per component (default 50000).")
  in
  let max_depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"D"
          ~doc:"Guarded divergence-search depth budget (default 200).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as one JSON object.")
  in
  Cmd.v
    (Cmd.info "decide"
       ~doc:
         "Decide all-instances restricted chase termination (exit 0 = terminating, 1 = \
          non-terminating, 3 = unknown).")
    Term.(
      const run $ file_arg $ portfolio_arg $ max_states_arg $ max_depth_arg $ json_arg
      $ stats_arg $ trace_json_arg $ jobs_arg)

(* --- query ----------------------------------------------------------- *)

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"CQ as 'body -> ans(X,...).'")

let query_cmd =
  let run file query max_steps =
    let p = or_die (load file) in
    let tgds = Chase_parser.Program.tgds p in
    let database = Chase_parser.Program.database p in
    let q = Chase_query.Conjunctive_query.parse query in
    match Chase_query.Certain_answers.compute_checked ~max_steps ~tgds ~database q with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok r ->
        List.iter
          (fun t -> print_endline (Chase_query.Conjunctive_query.tuple_to_string t))
          r.Chase_query.Certain_answers.answers;
        Format.eprintf "(%d answers; chase: %d atoms in %d steps)@."
          (List.length r.Chase_query.Certain_answers.answers)
          r.Chase_query.Certain_answers.chase_size r.Chase_query.Certain_answers.chase_steps
  in
  Cmd.v (Cmd.info "query" ~doc:"Certain answers by chase materialization.")
    Term.(const run $ file_arg $ query_arg $ max_steps_arg)

(* --- automaton ------------------------------------------------------- *)

let automaton_cmd =
  let run file stats trace_json jobs =
    let p = or_die (load file) in
    let tgds = Chase_parser.Program.tgds p in
    (match Chase_classes.Stickiness.is_sticky tgds with
    | false ->
        prerr_endline "the TGD set is not sticky";
        exit 2
    | true -> ());
    with_obs ~stats ~trace_json @@ fun () ->
    with_jobs jobs @@ fun pool ->
    let ctx = Chase_termination.Sticky_automaton.make_context tgds in
    let comps = Chase_termination.Sticky_automaton.components ctx in
    Format.printf "alphabet: %d letters, components: %d@."
      (List.length (Chase_termination.Sticky_automaton.alphabet ctx))
      (List.length comps);
    List.iter
      (fun ((e, cls), a) ->
        (* one pass per component: emptiness and anatomy together *)
        let verdict, s = Chase_automata.Buchi.emptiness_with_stats ~pool a in
        let verdict =
          match verdict with
          | Chase_automata.Buchi.Empty -> "empty"
          | Chase_automata.Buchi.Nonempty _ -> "NONEMPTY"
          | Chase_automata.Buchi.Budget_exceeded _ -> "budget"
          | Chase_automata.Buchi.Cancelled _ -> "cancelled"
        in
        Format.printf "  (e=%s, Π=class %d): %d states, %d transitions — %s@."
          (Chase_core.Equality_type.to_string e)
          cls s.Chase_automata.Buchi.states s.Chase_automata.Buchi.transitions verdict)
      comps
  in
  Cmd.v (Cmd.info "automaton" ~doc:"Anatomy of the sticky Büchi automaton A_T.")
    Term.(const run $ file_arg $ stats_arg $ trace_json_arg $ jobs_arg)

(* --- ochase ---------------------------------------------------------- *)

let ochase_cmd =
  let run file max_depth dot stats trace_json =
    let p = or_die (load file) in
    let tgds = Chase_parser.Program.tgds p in
    let db = Chase_parser.Program.database p in
    let g =
      with_obs ~stats ~trace_json @@ fun () ->
      Chase_engine.Real_oblivious.build ~max_depth ~max_nodes:2_000 tgds db
    in
    if dot then print_string (Chase_termination.Dot.real_oblivious g)
    else Format.printf "%a@." Chase_engine.Real_oblivious.pp g
  in
  let depth_arg =
    Arg.(value & opt int 4 & info [ "max-depth" ] ~docv:"D" ~doc:"Depth horizon.")
  in
  let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT.") in
  Cmd.v
    (Cmd.info "ochase" ~doc:"Materialize the real oblivious chase (Def 3.3), optionally as DOT.")
    Term.(const run $ file_arg $ depth_arg $ dot_arg $ stats_arg $ trace_json_arg)

(* --- extract --------------------------------------------------------- *)

let extract_cmd =
  let run file max_steps =
    let p = or_die (load file) in
    let tgds = Chase_parser.Program.tgds p in
    let db = Chase_parser.Program.database p in
    let d =
      Chase_engine.Restricted.run ~strategy:Chase_engine.Restricted.Lifo ~max_steps tgds db
    in
    (match Chase_engine.Derivation.status d with
    | Chase_engine.Derivation.Terminated ->
        prerr_endline "the chase terminated: nothing to extract";
        exit 1
    | Chase_engine.Derivation.Out_of_budget -> ());
    match Chase_termination.Caterpillar_extract.extract tgds d with
    | Ok cat ->
        Format.printf "%a@." Chase_termination.Caterpillar.pp cat;
        Format.printf "pass-on gaps: %s@."
          (String.concat ","
             (List.map string_of_int (Chase_termination.Caterpillar.pass_on_gaps cat)))
    | Error e ->
        prerr_endline e;
        exit 1
  in
  Cmd.v
    (Cmd.info "extract"
       ~doc:"Extract a free connected caterpillar from a diverging prefix (§6.2).")
    Term.(const run $ file_arg $ max_steps_arg)

(* --- treeify --------------------------------------------------------- *)

let treeify_cmd =
  let run file dot =
    let p = or_die (load file) in
    let tgds = Chase_parser.Program.tgds p in
    let db = Chase_parser.Program.database p in
    match Chase_termination.Treeify.treeify tgds db with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok r when dot ->
        print_string (Chase_termination.Dot.join_tree r.Chase_termination.Treeify.tree)
    | Ok r ->
        Format.printf "α∞ = %s@." (Chase_core.Atom.to_string r.Chase_termination.Treeify.alpha_infinity);
        Format.printf "longs-for edges:@.";
        List.iter
          (fun (a, b) ->
            Format.printf "  %s ⟶ %s@." (Chase_core.Atom.to_string a) (Chase_core.Atom.to_string b))
          r.Chase_termination.Treeify.longs_for;
        Format.printf "D_ac (path bound %d): %a@." r.Chase_termination.Treeify.depth
          Chase_core.Instance.pp r.Chase_termination.Treeify.dac;
        Format.printf "join tree:@.%a@." Chase_termination.Join_tree.pp
          r.Chase_termination.Treeify.tree
  in
  let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit the join tree as Graphviz DOT.") in
  Cmd.v (Cmd.info "treeify" ~doc:"Run the Treeification Theorem construction (Thm 5.5).")
    Term.(const run $ file_arg $ dot_arg)

(* --- msol ------------------------------------------------------------ *)

let msol_cmd =
  let run file print =
    let p = or_die (load file) in
    let tgds = Chase_parser.Program.tgds p in
    let phi = Chase_termination.Msol.phi_t tgds in
    let fo, so = Chase_termination.Msol.quantifier_count phi in
    Format.printf "|Λ_T| = %d labels@." (Chase_termination.Msol.alphabet_size tgds);
    Format.printf "|φ_T| = %d nodes, %d first-order and %d second-order quantifiers@."
      (Chase_termination.Msol.size phi) fo so;
    Format.printf "closed: %b@." (Chase_termination.Msol.is_closed phi);
    if print then Format.printf "@.%a@." Chase_termination.Msol.pp phi
  in
  let print_arg = Arg.(value & flag & info [ "print" ] ~doc:"Print the whole sentence.") in
  Cmd.v
    (Cmd.info "msol" ~doc:"Build the MSOL sentence φ_T of Lemma 5.12 and report its shape.")
    Term.(const run $ file_arg $ print_arg)

(* --- fuzz ------------------------------------------------------------ *)

let fuzz_cmd =
  let run cases seed profiles portfolio jobs no_shrink
      corpus_dir json stats trace_json =
    let profiles =
      match profiles with
      | [] -> Chase_check.Profile.all
      | names ->
          List.map (fun n -> or_die (Chase_check.Profile.of_name n)) names
    in
    let config =
      {
        Chase_check.Harness.cases;
        seed;
        profiles;
        jobs;
        shrink = not no_shrink;
        corpus_dir;
        portfolio;
      }
    in
    let report =
      with_obs ~stats ~trace_json @@ fun () ->
      with_jobs jobs @@ fun pool -> Chase_check.Harness.run ~pool config
    in
    if json then print_endline (Chase_check.Harness.json report)
    else begin
      List.iter
        (fun (f : Chase_check.Harness.failure) ->
          Format.eprintf "--- %s seed %d ---@."
            (Chase_check.Profile.name f.Chase_check.Harness.profile)
            f.Chase_check.Harness.case_seed;
          List.iter
            (fun d -> Format.eprintf "  %a@." Chase_check.Oracle.pp_discrepancy d)
            f.Chase_check.Harness.discrepancies;
          Format.eprintf "  minimal repro:@.%s@." f.Chase_check.Harness.repro;
          Option.iter
            (fun p -> Format.eprintf "  written to %s@." p)
            f.Chase_check.Harness.written)
        report.Chase_check.Harness.failures;
      print_endline (Chase_check.Harness.summary report)
    end;
    if report.Chase_check.Harness.failures <> [] then exit 1
  in
  let cases_arg =
    Arg.(value & opt int 200 & info [ "cases"; "n" ] ~docv:"N" ~doc:"Number of random cases.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Master seed (runs are deterministic in it).")
  in
  let profile_arg =
    Arg.(
      value & opt_all string []
      & info [ "profile"; "p" ] ~docv:"P"
          ~doc:
            (Printf.sprintf "Fuzzing profile, repeatable (default: all of %s)."
               (String.concat ", " Chase_check.Profile.names)))
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report raw failing cases without delta-debugging.")
  in
  let portfolio_arg =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Add the portfolio-vs-fixed decider cross-exam and the subsumption-pruning \
             cross-check to every case.")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Write shrunk repros to $(docv) as corpus files.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the machine-readable report on stdout.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs through every engine configuration, checking \
          cross-engine invariants; failures are delta-debugged to minimal repros (exit 1 on \
          any discrepancy).")
    Term.(
      const run $ cases_arg $ seed_arg $ profile_arg $ portfolio_arg
      $ jobs_arg $ no_shrink_arg $ corpus_arg $ json_arg $ stats_arg $ trace_json_arg)

(* --- serve ----------------------------------------------------------- *)

let serve_cmd =
  let run socket tcp max_sessions max_steps max_facts max_wall_ms backend stats trace_json jobs
      =
    let defaults =
      {
        Chase_serve.Session.max_steps;
        max_facts;
        max_wall_ms;
      }
    in
    with_obs ~stats ~trace_json @@ fun () ->
    with_jobs jobs @@ fun epool ->
    let server =
      Chase_serve.Server.create ~epool { Chase_serve.Server.max_sessions; defaults; backend }
    in
    match (socket, tcp) with
    | Some _, Some _ -> or_die (Error "serve: pass at most one of --socket and --tcp")
    | Some path, None -> (
        Format.eprintf "chasectl serve: listening on unix socket %s@." path;
        try Chase_serve.Server.serve_unix server path
        with Failure msg -> or_die (Error (Printf.sprintf "serve: %s" msg)))
    | None, Some port ->
        Format.eprintf "chasectl serve: listening on 127.0.0.1:%d@." port;
        Chase_serve.Server.serve_tcp server port
    | None, None -> Chase_serve.Server.serve_stdio server
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) instead of stdin/stdout.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on loopback TCP port $(docv).")
  in
  let max_sessions_arg =
    Arg.(
      value
      & opt int Chase_serve.Server.default_config.Chase_serve.Server.max_sessions
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Admission control: refuse new sessions (error code $(b,busy)) beyond $(docv).")
  in
  let d = Chase_serve.Session.default_budgets in
  let max_steps_arg =
    Arg.(
      value
      & opt int d.Chase_serve.Session.max_steps
      & info [ "max-steps" ] ~docv:"N" ~doc:"Default per-$(b,chase)-call step budget.")
  in
  let max_facts_arg =
    Arg.(
      value
      & opt int d.Chase_serve.Session.max_facts
      & info [ "max-facts" ] ~docv:"N" ~doc:"Default per-session instance-cardinality cap.")
  in
  let max_wall_ms_arg =
    Arg.(
      value
      & opt float d.Chase_serve.Session.max_wall_ms
      & info [ "max-wall-ms" ] ~docv:"MS"
          ~doc:"Default per-$(b,chase)-call wall-clock budget in milliseconds.")
  in
  let serve_backend_arg =
    Arg.(
      value
      & opt store_backend_conv Chase_serve.Server.default_config.Chase_serve.Server.backend
      & info [ "backend" ] ~docv:"B"
          ~doc:
            "Default store backend for new sessions: $(b,columnar) (interned columns; a \
             retract compacts the store in place) or its alias $(b,compiled), which names \
             the same store and is echoed as given.  A $(b,load-program) request may \
             override it per session with a \"backend\" field.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived chase service: named sessions with incremental re-chase over a \
          JSON-lines protocol (docs/SERVICE.md).")
    Term.(
      const run $ socket_arg $ tcp_arg $ max_sessions_arg $ max_steps_arg $ max_facts_arg
      $ max_wall_ms_arg $ serve_backend_arg $ stats_arg $ trace_json_arg $ jobs_arg)

(* --- scenarios ------------------------------------------------------- *)

let scenarios_cmd =
  let run () =
    List.iter
      (fun (s : Chase_workload.Scenarios.t) ->
        Format.printf "%-28s  %-9s  %s@." s.Chase_workload.Scenarios.name
          (match s.Chase_workload.Scenarios.truth with
          | Chase_workload.Scenarios.All_terminating -> "term"
          | Chase_workload.Scenarios.Diverging -> "diverge")
          s.Chase_workload.Scenarios.description)
      Chase_workload.Scenarios.all
  in
  Cmd.v (Cmd.info "scenarios" ~doc:"List the built-in scenario gallery.") Term.(const run $ const ())

let main =
  let info =
    Cmd.info "chasectl" ~version:"1.0.0"
      ~doc:"Restricted chase engines and all-instances termination decision procedures."
  in
  Cmd.group info
    [
      classify_cmd; chase_cmd; decide_cmd; query_cmd; automaton_cmd; ochase_cmd;
      extract_cmd; treeify_cmd; msol_cmd; fuzz_cmd; serve_cmd; scenarios_cmd;
    ]

let () = exit (Cmd.eval main)
