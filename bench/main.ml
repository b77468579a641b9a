(* The benchmark harness: regenerates every experiment of EXPERIMENTS.md
   (E1–E12, E15, E24).  The paper is a theory paper with no measured tables; these
   experiments check its qualitative claims and measure the implemented
   systems.  Run with

     dune exec bench/main.exe                        (all experiments)
     dune exec bench/main.exe -- E6 E8               (a selection)
     dune exec bench/main.exe -- --json --smoke E11  (small sizes; also
                                   write BENCH_results.json)
     dune exec bench/main.exe -- --jobs 4 E12        (cap the E12 sweep) *)

open Chase_core
open Chase_engine
open Bench_util

(* --smoke: shrink workload sizes so the whole harness runs in seconds
   (used by `make bench-smoke` as a CI-sized sanity pass). *)
let smoke = ref false

(* --jobs N: cap for the E12 domain sweep (0 = pick by mode: 2 under
   --smoke, 8 otherwise).  Every other experiment stays sequential, so
   their numbers remain comparable across trajectory entries. *)
let max_jobs = ref 0

let e12_max_jobs () = if !max_jobs > 0 then !max_jobs else if !smoke then 2 else 8

(* Bit-identical derivations: the cross-check E12 asserts before timing
   anything — its rows compare equal work or nothing. *)
let same_derivation d1 d2 =
  Derivation.status d1 = Derivation.status d2
  && List.length (Derivation.steps d1) = List.length (Derivation.steps d2)
  && List.for_all2
       (fun s1 s2 ->
         Trigger.equal s1.Derivation.trigger s2.Derivation.trigger
         && List.equal Atom.equal s1.Derivation.produced s2.Derivation.produced)
       (Derivation.steps d1) (Derivation.steps d2)

(* ------------------------------------------------------------------ *)
(* E1: restricted vs (semi-)oblivious chase result sizes.              *)
(* Claim (paper §1): the restricted chase builds much smaller           *)
(* instances, and detects satisfaction where the oblivious chase        *)
(* diverges.                                                            *)
(* ------------------------------------------------------------------ *)

let e1 () =
  (* 1a: the intro example — oblivious diverges, restricted adds 0. *)
  let tgds = Chase_parser.Parser.parse_tgds "r(X,Y) -> exists Z. r(X,Z)." in
  let rows =
    List.map
      (fun n ->
        let db = Chase_workload.Db_gen.chain ~pred:"r" ~length:n in
        let d = Restricted.run tgds db in
        let ob = Oblivious.run ~max_steps:(20 * n) tgds db in
        [
          string_of_int n;
          string_of_int (Derivation.growth d);
          (if ob.Oblivious.saturated then string_of_int (Instance.cardinal ob.Oblivious.instance)
           else Printf.sprintf ">=%d (diverges)" (Instance.cardinal ob.Oblivious.instance));
        ])
      [ 5; 20; 50 ]
  in
  table ~title:"E1a  intro example r(X,Y)->∃Z r(X,Z) on a chain of n edges"
    ~header:[ "n"; "restricted: new atoms"; "oblivious: atoms" ] rows;
  (* 1b: a satisfiable ontology — the restricted chase saturates small;
     both oblivious variants diverge (each re-fires the existential
     rules on invented witnesses). *)
  let src =
    "o1: employee(E) -> exists T. member(E,T).\no2: member(E,T) -> team(T).\n\
     o3: team(T) -> exists E. member(E,T).\no4: member(E,T) -> employee(E)."
  in
  let tgds = Chase_parser.Parser.parse_tgds src in
  let rows =
    List.map
      (fun n ->
        let db = Chase_workload.Db_gen.unary ~pred:"employee" ~count:n in
        let restricted = Restricted.run_exn tgds db in
        let budget = 200 * n in
        let semi = Oblivious.run ~variant:Oblivious.Semi_oblivious ~max_steps:budget tgds db in
        let ns = measure_ns "restricted" (fun () -> Restricted.run_exn tgds db) in
        [
          string_of_int n;
          string_of_int (Instance.cardinal restricted);
          (if semi.Oblivious.saturated then string_of_int (Instance.cardinal semi.Oblivious.instance)
           else Printf.sprintf ">=%d (diverges)" (Instance.cardinal semi.Oblivious.instance));
          pretty_ns ns;
        ])
      [ 10; 50; 100 ]
  in
  table
    ~title:
      "E1b  witness-reuse ontology on n employees: only the restricted chase terminates"
    ~header:[ "n"; "restricted atoms"; "semi-oblivious atoms"; "restricted time" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: the real oblivious chase is a growing multiset even when the    *)
(* oblivious chase (a set) is finite (Example 3.2/3.4).                 *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let tgds, db =
    program
      "s1: p(X,Y) -> r(X,Y).\ns2: p(X,Y) -> s(X).\ns3: r(X,Y) -> s(X).\n\
       s4: s(X) -> exists Y. r(X,Y).\np(a,b)."
  in
  let ob = Oblivious.run tgds db in
  let rows =
    List.map
      (fun depth ->
        let g = Real_oblivious.build ~max_depth:depth ~max_nodes:100_000 tgds db in
        let s_a = Atom.make "s" [ Term.Const "a" ] in
        [
          string_of_int depth;
          string_of_int (Real_oblivious.size g);
          string_of_int (Instance.cardinal (Real_oblivious.atom_set g));
          string_of_int (Real_oblivious.copies g s_a);
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  table
    ~title:
      (Printf.sprintf
         "E2  real oblivious chase of Example 3.2 by depth (the set-based oblivious chase \
          saturates at %d atoms)"
         (Instance.cardinal ob.Oblivious.instance))
    ~header:[ "depth"; "nodes (multiset)"; "distinct atoms"; "copies of s(a)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: fairness (§4).  The Lemma 4.4 bound, absence of mutual stops,   *)
(* and the multi-head counterexample B.1.                               *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let rows =
    List.filter_map
      (fun (s : Chase_workload.Scenarios.t) ->
        if not (Chase_workload.Scenarios.single_head s) then None
        else
          let tgds = Chase_workload.Scenarios.tgds s in
          let db = Chase_workload.Scenarios.database s in
          let d = Restricted.run ~max_steps:120 tgds db in
          let bound = Chase_termination.Fairness.equality_type_bound tgds in
          let witness = Chase_termination.Fairness.lemma_4_4_witness d in
          Some
            [
              s.Chase_workload.Scenarios.name;
              string_of_int bound;
              string_of_int (Derivation.length d);
              (match witness with None -> "none" | Some _ -> "VIOLATION");
            ])
      Chase_workload.Scenarios.all
  in
  table ~title:"E3a  Lemma 4.4 on derivation prefixes (mutual stopping must never occur)"
    ~header:[ "scenario"; "equality-type bound"; "prefix steps"; "mutual stops" ]
    rows;
  (* B.1: fair FIFO terminates; an unfair infinite derivation exists. *)
  let tgds, db =
    program
      "m1: r(X,Y,Y) -> exists Z. r(X,Z,Y), r(Z,Y,Y).\nm2: r(X,Y,Z) -> r(Z,Z,Z).\nr(a,b,b)."
  in
  let fifo = Restricted.run ~strategy:Restricted.Fifo ~max_steps:1_000 tgds db in
  let evidence =
    Chase_termination.Derivation_search.divergence_evidence ~max_depth:40 ~max_states:5_000 tgds
      db
  in
  table ~title:"E3b  Example B.1 (multi-head): the fairness theorem fails"
    ~header:[ "derivation"; "status"; "steps" ]
    [
      [
        "FIFO (fair)";
        (if Derivation.terminated fifo then "terminates" else "out of budget");
        string_of_int (Derivation.length fifo);
      ];
      [
        "greedy m1-only (unfair)";
        (match evidence with Some _ -> "unbounded prefix found" | None -> "not found");
        (match evidence with Some d -> string_of_int (Derivation.length d) | None -> "-");
      ];
    ]

(* ------------------------------------------------------------------ *)
(* E4: treeification (Thm 5.5): from a cyclic diverging database to an *)
(* acyclic one with the same behaviour.                                 *)
(* ------------------------------------------------------------------ *)

let e4 () =
  let cases =
    [
      ( "example-5-6+back-edge",
        "s1: s(X,Y) -> t(X).\ns2: r(X,Y), t(Y) -> p(X,Y).\ns3: p(X,Y) -> exists Z. p(Y,Z).\n\
         r(a,b). s(b,c). w(c,a)." );
      ( "triangle-remote-side",
        "s1: s(X,Y) -> t(Y).\ns2: r(X,Y), t(X) -> p(X,Y).\ns3: p(X,Y) -> exists Z. p(Y,Z).\n\
         r(a,b). s(c,a). w(b,c)." );
    ]
  in
  let rows =
    List.map
      (fun (name, src) ->
        let tgds, db = program src in
        match Chase_termination.Treeify.treeify tgds db with
        | Error e -> [ name; string_of_int (Instance.cardinal db); "-"; "-"; "failed: " ^ e ]
        | Ok r ->
            [
              name;
              string_of_int (Instance.cardinal db);
              string_of_int (Instance.cardinal r.Chase_termination.Treeify.dac);
              string_of_int r.Chase_termination.Treeify.depth;
              (if Chase_termination.Join_tree.is_acyclic r.Chase_termination.Treeify.dac then
                 "acyclic + diverges"
               else "NOT ACYCLIC");
            ])
      cases
  in
  table ~title:"E4  treeification of cyclic diverging databases (Thm 5.5)"
    ~header:[ "case"; "|D|"; "|D_ac|"; "path bound"; "validation" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5: chaseable sets (Thm 5.3) on finite fragments: derivation →      *)
(* chaseable subset of ochase → derivation, with timings.               *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let cases =
    [ "example-5-6"; "guarded-side-condition"; "example-3-2"; "linear-projection-chain" ]
  in
  let rows =
    List.filter_map
      (fun name ->
        match Chase_workload.Scenarios.by_name name with
        | None -> None
        | Some s ->
            let tgds = Chase_workload.Scenarios.tgds s in
            let db = Chase_workload.Scenarios.database s in
            let d = Restricted.run ~naming:`Canonical ~max_steps:6 tgds db in
            let graph = Real_oblivious.build ~max_depth:8 ~max_nodes:2_000 tgds db in
            let result =
              match Chase_termination.Chaseable.of_derivation graph d with
              | None -> "no embedding"
              | Some nodes -> (
                  if not (Chase_termination.Chaseable.is_chaseable graph nodes) then
                    "not chaseable"
                  else
                    match Chase_termination.Chaseable.to_derivation graph nodes with
                    | Ok d' when Derivation.validate tgds d' -> "roundtrip ok"
                    | Ok _ -> "extracted derivation invalid"
                    | Error e -> "extraction failed: " ^ e)
            in
            let ns =
              measure_ns "chaseable" (fun () ->
                  match Chase_termination.Chaseable.of_derivation graph d with
                  | Some nodes -> ignore (Chase_termination.Chaseable.is_chaseable graph nodes)
                  | None -> ())
            in
            Some
              [
                name;
                string_of_int (Real_oblivious.size graph);
                string_of_int (Derivation.length d);
                result;
                pretty_ns ns;
              ])
      cases
  in
  table ~title:"E5  Thm 5.3 roundtrip: derivation <-> chaseable subset of ochase(D,T)"
    ~header:[ "scenario"; "ochase nodes"; "prefix steps"; "roundtrip"; "check time" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: the sticky decision procedure: automaton sizes and decision      *)
(* times across the sticky gallery and random sticky sets.              *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let gallery =
    List.filter_map
      (fun (s : Chase_workload.Scenarios.t) ->
        let tgds = Chase_workload.Scenarios.tgds s in
        if Chase_workload.Scenarios.single_head s && Chase_classes.Stickiness.is_sticky tgds
        then Some (s.Chase_workload.Scenarios.name, tgds)
        else None)
      Chase_workload.Scenarios.all
  in
  let random =
    List.map
      (fun seed ->
        ( Printf.sprintf "random-sticky-%d" seed,
          Chase_workload.Tgd_gen.sticky_set
            { Chase_workload.Tgd_gen.default with Chase_workload.Tgd_gen.seed; tgds = 5 } ))
      [ 1; 2; 3 ]
  in
  let rows =
    List.map
      (fun (name, tgds) ->
        let ctx = Chase_termination.Sticky_automaton.make_context tgds in
        let letters = List.length (Chase_termination.Sticky_automaton.alphabet ctx) in
        let comps = Chase_termination.Sticky_automaton.components ctx in
        let states =
          List.fold_left
            (fun acc (_, a) -> acc + (Chase_automata.Buchi.stats a).Chase_automata.Buchi.states)
            0 comps
        in
        let stats = Chase_termination.Sticky_decider.decide_with_stats tgds in
        let verdict =
          match stats.Chase_termination.Sticky_decider.decision with
          | Chase_termination.Sticky_decider.All_terminating -> "terminating"
          | Chase_termination.Sticky_decider.Non_terminating _ -> "diverging"
          | Chase_termination.Sticky_decider.Inconclusive _ -> "inconclusive"
        in
        let ns = measure_ns name (fun () -> Chase_termination.Sticky_decider.decide tgds) in
        [
          name;
          string_of_int (List.length tgds);
          string_of_int letters;
          string_of_int (List.length comps);
          string_of_int states;
          verdict;
          pretty_ns ns;
        ])
      (gallery @ random)
  in
  table ~title:"E6a  sticky decider: A_T anatomy and decision time"
    ~header:[ "set"; "|T|"; "letters"; "components"; "states"; "verdict"; "time" ]
    rows;
  (* scaling sweep: growing random sticky sets *)
  let rows =
    List.map
      (fun n ->
        let tgds =
          Chase_workload.Tgd_gen.sticky_set
            {
              Chase_workload.Tgd_gen.default with
              Chase_workload.Tgd_gen.seed = 7 * n;
              tgds = n;
              predicates = 1 + (n / 2);
              max_arity = 2;
            }
        in
        let ctx = Chase_termination.Sticky_automaton.make_context tgds in
        let comps = Chase_termination.Sticky_automaton.components ctx in
        let states =
          List.fold_left
            (fun acc (_, a) -> acc + (Chase_automata.Buchi.stats a).Chase_automata.Buchi.states)
            0 comps
        in
        let ns = measure_ns "sweep" (fun () -> Chase_termination.Sticky_decider.decide tgds) in
        [
          string_of_int n;
          string_of_int (List.length (Chase_termination.Sticky_automaton.alphabet ctx));
          string_of_int (List.length comps);
          string_of_int states;
          pretty_ns ns;
        ])
      [ 2; 4; 6; 8; 10 ]
  in
  table ~title:"E6b  sticky decider scaling on random sticky sets of growing size"
    ~header:[ "|T|"; "letters"; "components"; "states"; "decision time" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: decider comparison on the ground-truth gallery: weak acyclicity  *)
(* (baseline) vs the paper's procedures.                                *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let sufficient check tgds = if check tgds then `Term else `Unknown in
  let rows, (wa_ok, ja_ok, mfa_ok, full_ok, total) =
    List.fold_left
      (fun (rows, (wa_ok, ja_ok, mfa_ok, full_ok, total)) (s : Chase_workload.Scenarios.t) ->
        if not (Chase_workload.Scenarios.single_head s) then
          (rows, (wa_ok, ja_ok, mfa_ok, full_ok, total))
        else begin
          let tgds = Chase_workload.Scenarios.tgds s in
          let truth = s.Chase_workload.Scenarios.truth in
          let wa = sufficient Chase_classes.Weak_acyclicity.is_weakly_acyclic tgds in
          let ja = sufficient Chase_classes.Joint_acyclicity.is_jointly_acyclic tgds in
          let mfa = sufficient Chase_termination.Mfa.is_mfa tgds in
          let full = (Chase_termination.Decider.decide tgds).Chase_termination.Decider.answer in
          let show_truth = function
            | Chase_workload.Scenarios.All_terminating -> "term"
            | Chase_workload.Scenarios.Diverging -> "diverge"
          in
          let show_suff = function `Term -> "term" | `Unknown -> "unknown" in
          let show_full = function
            | Chase_termination.Decider.Terminating -> "term"
            | Chase_termination.Decider.Non_terminating -> "diverge"
            | Chase_termination.Decider.Unknown -> "unknown"
          in
          let suff_correct v =
            match (truth, v) with
            | Chase_workload.Scenarios.All_terminating, `Term -> true
            | _ -> false
          in
          let full_correct =
            match (truth, full) with
            | Chase_workload.Scenarios.All_terminating, Chase_termination.Decider.Terminating
            | Chase_workload.Scenarios.Diverging, Chase_termination.Decider.Non_terminating ->
                true
            | _ -> false
          in
          ( rows
            @ [
                [
                  s.Chase_workload.Scenarios.name;
                  show_truth truth;
                  show_suff wa;
                  show_suff ja;
                  show_suff mfa;
                  show_full full;
                ];
              ],
            ( (wa_ok + if suff_correct wa then 1 else 0),
              (ja_ok + if suff_correct ja then 1 else 0),
              (mfa_ok + if suff_correct mfa then 1 else 0),
              (full_ok + if full_correct then 1 else 0),
              total + 1 ) )
        end)
      ([], (0, 0, 0, 0, 0))
      Chase_workload.Scenarios.all
  in
  table
    ~title:
      "E7  baselines (weak ⊂ joint ⊂ model-faithful acyclicity) vs the paper's deciders, \
       on ground truth"
    ~header:[ "scenario"; "truth"; "WA"; "JA"; "MFA"; "this work" ]
    rows;
  Printf.printf
    "  conclusive-and-correct: WA %d/%d, JA %d/%d, MFA %d/%d, this work %d/%d\n" wa_ok total
    ja_ok total mfa_ok total full_ok total

(* ------------------------------------------------------------------ *)
(* E8: engine scaling: restricted chase time vs database size, and the  *)
(* effect of the trigger strategy on derivation length.                 *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let tgds =
    Chase_parser.Parser.parse_tgds
      "m1: employee(X,D), dept_city(D,C) -> works_in(X,C).\n\
       m2: employee(X,D) -> exists K. office(X,K).\n\
       m3: works_in(X,C) -> city(C)."
  in
  let mk_db n =
    let base =
      List.fold_left
        (fun acc j ->
          Instance.add
            (Atom.make "dept_city"
               [ Term.Const (Printf.sprintf "d%d" j); Term.Const (Printf.sprintf "c%d" j) ])
            acc)
        Instance.empty (List.init 10 Fun.id)
    in
    let rec go acc i =
      if i >= n then acc
      else
        let d = Printf.sprintf "d%d" (i mod 10) in
        go
          (Instance.add
             (Atom.make "employee" [ Term.Const (Printf.sprintf "e%d" i); Term.Const d ])
             acc)
          (i + 1)
    in
    go base 0
  in
  let rows =
    List.map
      (fun n ->
        let db = mk_db n in
        let d = Restricted.run ~max_steps:100_000 tgds db in
        let ns = once_ns (fun () -> Restricted.run ~max_steps:100_000 tgds db) in
        let atoms = Instance.cardinal (Derivation.final d) in
        let per_step = ns /. float_of_int (max 1 (Derivation.length d)) in
        [
          string_of_int n;
          string_of_int atoms;
          string_of_int (Derivation.length d);
          pretty_ns ns;
          pretty_ns per_step;
        ])
      [ 50; 100; 200; 400 ]
  in
  table ~title:"E8a  restricted chase scaling on the data-exchange workload"
    ~header:[ "employees"; "final atoms"; "steps"; "total time"; "time/step" ]
    rows;
  let tgds =
    Chase_parser.Parser.parse_tgds
      "o1: employee(E) -> exists T. member(E,T).\no2: member(E,T) -> team(T).\n\
       o3: team(T) -> exists E. member(E,T).\no4: member(E,T) -> employee(E)."
  in
  let db = Chase_workload.Db_gen.unary ~pred:"employee" ~count:100 in
  let rows =
    List.map
      (fun (name, strategy) ->
        let d = Restricted.run ~strategy ~max_steps:100_000 tgds db in
        let ns = once_ns (fun () -> Restricted.run ~strategy ~max_steps:100_000 tgds db) in
        [ name; string_of_int (Derivation.length d); pretty_ns ns ])
      [ ("fifo", Restricted.Fifo); ("lifo", Restricted.Lifo); ("random", Restricted.Random 11) ]
  in
  table ~title:"E8b  strategy effect on the witness-reuse ontology (100 employees)"
    ~header:[ "strategy"; "steps"; "time" ]
    rows;
  (* ChaseBench-style scalable scenarios (the paper's reference [4]). *)
  let scenarios =
    [
      Chase_workload.St_mapping.doctors ~patients:200;
      Chase_workload.St_mapping.doctors ~patients:800;
      Chase_workload.St_mapping.deep ~depth:20 ~width:10;
      Chase_workload.St_mapping.deep ~depth:40 ~width:10;
      Chase_workload.St_mapping.join_heavy ~rows:200;
      Chase_workload.St_mapping.join_heavy ~rows:800;
    ]
  in
  let rows =
    List.map
      (fun (s : Chase_workload.St_mapping.scenario) ->
        let d =
          Restricted.run ~max_steps:200_000 s.Chase_workload.St_mapping.tgds
            s.Chase_workload.St_mapping.database
        in
        let ns =
          once_ns (fun () ->
              Restricted.run ~max_steps:200_000 s.Chase_workload.St_mapping.tgds
                s.Chase_workload.St_mapping.database)
        in
        [
          s.Chase_workload.St_mapping.name;
          string_of_int s.Chase_workload.St_mapping.facts;
          string_of_int (Derivation.length d);
          pretty_ns ns;
          pretty_ns (ns /. float_of_int (max 1 (Derivation.length d)));
        ])
      scenarios
  in
  table ~title:"E8c  ChaseBench-style scenarios (reference [4] shape)"
    ~header:[ "scenario"; "source facts"; "steps"; "time"; "time/step" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9: all-instances termination across chase variants: the oblivious   *)
(* and semi-oblivious critical-database deciders vs this work's         *)
(* restricted-chase deciders, on the gallery.  The rows where the       *)
(* columns differ are where the restricted chase earns its activeness   *)
(* checks.                                                              *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let show_obl = function
    | Chase_termination.Oblivious_decider.All_terminating _ -> "term"
    | Chase_termination.Oblivious_decider.Diverging_on_critical _ -> "diverge"
  in
  let rows =
    List.filter_map
      (fun (s : Chase_workload.Scenarios.t) ->
        if not (Chase_workload.Scenarios.single_head s) then None
        else
          let tgds = Chase_workload.Scenarios.tgds s in
          let obl = Chase_termination.Oblivious_decider.decide ~max_steps:3_000 tgds in
          let semi =
            Chase_termination.Oblivious_decider.decide
              ~variant:Oblivious.Semi_oblivious ~max_steps:3_000 tgds
          in
          let res = (Chase_termination.Decider.decide tgds).Chase_termination.Decider.answer in
          let res =
            match res with
            | Chase_termination.Decider.Terminating -> "term"
            | Chase_termination.Decider.Non_terminating -> "diverge"
            | Chase_termination.Decider.Unknown -> "unknown"
          in
          let separated =
            if show_obl semi = "diverge" && res = "term" then "⇐ restricted wins" else ""
          in
          Some [ s.Chase_workload.Scenarios.name; show_obl obl; show_obl semi; res; separated ])
      Chase_workload.Scenarios.all
  in
  table
    ~title:
      "E9  all-instances termination across chase variants (critical-database deciders vs \
       this work)"
    ~header:[ "scenario"; "oblivious"; "semi-oblivious"; "restricted"; "" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10: anatomy of the §6 pipeline and of the §5.3 sentence:            *)
(* extraction and finitarization on diverging sticky sets, and the      *)
(* explicit MSOL sentence φ_T for guarded sets.                         *)
(* ------------------------------------------------------------------ *)

let e10 () =
  (* E10a: derivation → caterpillar → finitary caterpillar *)
  let sticky_diverging =
    List.filter
      (fun (s : Chase_workload.Scenarios.t) ->
        Chase_workload.Scenarios.single_head s
        && s.Chase_workload.Scenarios.truth = Chase_workload.Scenarios.Diverging
        && Chase_classes.Stickiness.is_sticky (Chase_workload.Scenarios.tgds s))
      Chase_workload.Scenarios.all
  in
  let rows =
    List.filter_map
      (fun (s : Chase_workload.Scenarios.t) ->
        let tgds = Chase_workload.Scenarios.tgds s in
        (* the free caterpillar: unroll the decider's lasso 8 turns (its
           legs are maximally fresh, which is what Lemma 6.13 unifies);
           extraction from concrete derivations is exercised by the tests *)
        match Chase_termination.Sticky_decider.decide ~unroll_turns:8 tgds with
        | Chase_termination.Sticky_decider.All_terminating
        | Chase_termination.Sticky_decider.Inconclusive _ ->
            Some [ s.Chase_workload.Scenarios.name; "-"; "-"; "-"; "no certificate" ]
        | Chase_termination.Sticky_decider.Non_terminating cert -> (
            let cat = cert.Chase_termination.Sticky_decider.prefix in
            let body = Chase_termination.Caterpillar.length cat in
            let legs = Instance.cardinal (Chase_termination.Caterpillar.legs cat) in
            match Chase_termination.Finitary.finitarize_checked tgds cat with
            | Error e ->
                Some
                  [
                    s.Chase_workload.Scenarios.name;
                    string_of_int body;
                    string_of_int legs;
                    "-";
                    "finitarize failed: " ^ e;
                  ]
            | Ok (_, stats) ->
                Some
                  [
                    s.Chase_workload.Scenarios.name;
                    string_of_int body;
                    string_of_int legs;
                    string_of_int stats.Chase_termination.Finitary.leg_atoms_after;
                    Printf.sprintf "bank m=%d, validated"
                      stats.Chase_termination.Finitary.bank_size;
                  ]))
      sticky_diverging
  in
  table
    ~title:
      "E10a  §6.3–§6.4 pipeline: lasso → free connected caterpillar → finitary \
       (8-turn unrollings)"
    ~header:[ "scenario"; "body steps"; "legs before"; "legs after"; "Lemma 6.13" ]
    rows;
  (* E10b: the MSOL sentence φ_T for guarded sets *)
  let guarded =
    List.filter
      (fun (s : Chase_workload.Scenarios.t) ->
        Chase_workload.Scenarios.single_head s
        && Chase_classes.Guardedness.is_guarded (Chase_workload.Scenarios.tgds s))
      Chase_workload.Scenarios.all
  in
  let rows =
    List.map
      (fun (s : Chase_workload.Scenarios.t) ->
        let tgds = Chase_workload.Scenarios.tgds s in
        let phi = Chase_termination.Msol.phi_t tgds in
        let fo, so = Chase_termination.Msol.quantifier_count phi in
        [
          s.Chase_workload.Scenarios.name;
          string_of_int (List.length tgds);
          string_of_int (Chase_termination.Msol.alphabet_size tgds);
          string_of_int (Chase_termination.Msol.size phi);
          Printf.sprintf "%d/%d" fo so;
        ])
      guarded
  in
  table ~title:"E10b  the explicit MSOL sentence φ_T of Lemma 5.12 (guarded gallery)"
    ~header:[ "scenario"; "|T|"; "|Λ_T|"; "|φ_T| nodes"; "FO/SO quantifiers" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: compiled join plans + mutable instance vs the naive engine.     *)
(* The two Restricted backends produce identical derivations (property- *)
(* tested), so the ratio below is pure engine throughput: compiled      *)
(* plans over the columnar Cinstance against the generic homomorphism   *)
(* search over the persistent Instance.                                 *)
(* ------------------------------------------------------------------ *)

let e11 () =
  let ontology_src =
    "o1: employee(E) -> exists T. member(E,T).\no2: member(E,T) -> team(T).\n\
     o3: team(T) -> exists E. member(E,T).\no4: member(E,T) -> employee(E)."
  in
  let ontology n =
    let tgds = Chase_parser.Parser.parse_tgds ontology_src in
    (Printf.sprintf "ontology(%d)" n, tgds, Chase_workload.Db_gen.unary ~pred:"employee" ~count:n)
  in
  let st scenario =
    let s = scenario in
    (s.Chase_workload.St_mapping.name, s.Chase_workload.St_mapping.tgds,
     s.Chase_workload.St_mapping.database)
  in
  let families =
    if !smoke then
      [
        ontology 40;
        st (Chase_workload.St_mapping.doctors ~patients:25);
        st (Chase_workload.St_mapping.deep ~depth:4 ~width:6);
        st (Chase_workload.St_mapping.join_heavy ~rows:12);
        st (Chase_workload.St_mapping.hub_propagation ~n:60 ~pad:240);
        st (Chase_workload.St_mapping.hub_exchange ~n:50 ~pad:400);
      ]
    else
      [
        ontology 300;
        st (Chase_workload.St_mapping.doctors ~patients:150);
        st (Chase_workload.St_mapping.deep ~depth:6 ~width:25);
        st (Chase_workload.St_mapping.join_heavy ~rows:45);
        st (Chase_workload.St_mapping.hub_propagation ~n:2000 ~pad:8000);
        st (Chase_workload.St_mapping.hub_exchange ~n:1500 ~pad:12000);
      ]
  in
  let quota = if !smoke then 0.1 else 0.5 in
  let rows =
    List.map
      (fun (name, tgds, db) ->
        let run backend () = Restricted.run ~backend ~max_steps:200_000 tgds db in
        let d = run `Compiled () in
        assert (Derivation.terminated d);
        let steps = Derivation.length d in
        let naive_ns = measure_ns ~quota (name ^ "/naive") (run `Naive) in
        let compiled_ns = measure_ns ~quota (name ^ "/compiled") (run `Compiled) in
        let speedup = naive_ns /. compiled_ns in
        let throughput ns = float_of_int steps /. (ns /. 1e9) in
        record "E11"
          [
            ("family", Str name);
            ("chase_steps", Int steps);
            ("naive_ns", Num naive_ns);
            ("compiled_ns", Num compiled_ns);
            ("naive_steps_per_s", Num (throughput naive_ns));
            ("compiled_steps_per_s", Num (throughput compiled_ns));
            ("speedup", Num speedup);
          ];
        [
          name;
          string_of_int steps;
          pretty_ns naive_ns;
          pretty_ns compiled_ns;
          Printf.sprintf "%.0f" (throughput naive_ns);
          Printf.sprintf "%.0f" (throughput compiled_ns);
          Printf.sprintf "%.1fx" speedup;
        ])
      families
  in
  table
    ~title:
      "E11  restricted chase, naive engine vs compiled plans + mutable instance \
       (identical derivations)"
    ~header:
      [ "family"; "steps"; "naive"; "compiled"; "naive steps/s"; "compiled steps/s"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12: multicore scaling over the lib/exec domain pool.  Two workload  *)
(* families: the E11 skewed-hub mappings (parallel activity scan in the *)
(* restricted chase) and growing random sticky sets (parallel Büchi     *)
(* frontier expansion in the decider).  Parallel runs are bit-identical *)
(* to sequential — same derivations, verdicts and state counts; that is *)
(* asserted below and property-tested in test/suite_parallel_exec.ml —  *)
(* so the sweep measures wall-clock only.  Speedup is relative to the   *)
(* jobs=1 run of the same binary; on a single-core container every row  *)
(* degrades to pool overhead (see EXPERIMENTS.md E12 for the caveat).   *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let module Exec = Chase_exec.Pool in
  let mj = e12_max_jobs () in
  let sweep =
    let base = List.filter (fun j -> j <= mj) [ 1; 2; 4; 8 ] in
    if List.mem mj base then base else base @ [ mj ]
  in
  let quota = if !smoke then 0.1 else 0.25 in
  (* 12a: restricted chase on the skewed-hub mappings — the E11 families
     with the widest trigger queues, i.e. the most activity checks per
     winning pop for the speculative scan to overlap. *)
  let st scenario =
    let s = scenario in
    (s.Chase_workload.St_mapping.name, s.Chase_workload.St_mapping.tgds,
     s.Chase_workload.St_mapping.database)
  in
  let chase_families =
    if !smoke then
      [
        st (Chase_workload.St_mapping.hub_propagation ~n:60 ~pad:240);
        st (Chase_workload.St_mapping.hub_exchange ~n:50 ~pad:400);
      ]
    else
      [
        st (Chase_workload.St_mapping.hub_propagation ~n:2000 ~pad:8000);
        st (Chase_workload.St_mapping.hub_exchange ~n:1500 ~pad:12000);
      ]
  in
  let chase_rows =
    List.concat_map
      (fun (name, tgds, db) ->
        let run pool () = Restricted.run ~max_steps:200_000 ~pool tgds db in
        let base = run Exec.inline () in
        let steps = Derivation.length base in
        let base_ns = ref nan in
        List.map
          (fun j ->
            Exec.with_pool ~jobs:j @@ fun pool ->
            assert (same_derivation base (run pool ()));
            let ns = measure_ns ~quota (Printf.sprintf "%s/jobs=%d" name j) (run pool) in
            if j = 1 then base_ns := ns;
            let speedup = !base_ns /. ns in
            record "E12"
              [
                ("family", Str ("chase/" ^ name));
                ("jobs", Int j);
                ("chase_steps", Int steps);
                ("ns", Num ns);
                ("steps_per_s", Num (float_of_int steps /. (ns /. 1e9)));
                ("speedup_vs_jobs1", Num speedup);
              ];
            [
              "chase " ^ name;
              string_of_int j;
              string_of_int steps;
              pretty_ns ns;
              Printf.sprintf "%.2fx" speedup;
            ])
          sweep)
      chase_families
  in
  (* 12b: Büchi-heavy sticky decides — E6b's random scaling family at
     its largest sizes, where decision time is dominated by the product
     automaton exploration that the pool parallelizes level by level. *)
  let sticky_sets =
    let set n =
      ( Printf.sprintf "random-sticky-%d" n,
        Chase_workload.Tgd_gen.sticky_set
          {
            Chase_workload.Tgd_gen.default with
            Chase_workload.Tgd_gen.seed = 7 * n;
            tgds = n;
            predicates = 1 + (n / 2);
            max_arity = 2;
          } )
    in
    if !smoke then [ set 6 ] else [ set 10; set 12 ]
  in
  let sticky_rows =
    List.concat_map
      (fun (name, tgds) ->
        let stats pool = Chase_termination.Sticky_decider.decide_with_stats ~pool tgds in
        let tag (s : Chase_termination.Sticky_decider.stats) =
          match s.Chase_termination.Sticky_decider.decision with
          | Chase_termination.Sticky_decider.All_terminating -> "terminating"
          | Chase_termination.Sticky_decider.Non_terminating _ -> "diverging"
          | Chase_termination.Sticky_decider.Inconclusive _ -> "inconclusive"
        in
        let base = stats Exec.inline in
        let base_ns = ref nan in
        List.map
          (fun j ->
            Exec.with_pool ~jobs:j @@ fun pool ->
            let s = stats pool in
            assert (
              tag s = tag base
              && s.Chase_termination.Sticky_decider.explored_states
                 = base.Chase_termination.Sticky_decider.explored_states);
            let ns =
              measure_ns ~quota
                (Printf.sprintf "%s/jobs=%d" name j)
                (fun () -> Chase_termination.Sticky_decider.decide ~pool tgds)
            in
            if j = 1 then base_ns := ns;
            let speedup = !base_ns /. ns in
            record "E12"
              [
                ("family", Str ("buchi/" ^ name));
                ("jobs", Int j);
                ("states", Int base.Chase_termination.Sticky_decider.explored_states);
                ("ns", Num ns);
                ("speedup_vs_jobs1", Num speedup);
              ];
            [
              "büchi " ^ name;
              string_of_int j;
              string_of_int base.Chase_termination.Sticky_decider.explored_states;
              pretty_ns ns;
              Printf.sprintf "%.2fx" speedup;
            ])
          sweep)
      sticky_sets
  in
  table
    ~title:
      (Printf.sprintf
         "E12  multicore scaling, 1..%d domains (recommended_domain_count here: %d); \
          parallel runs bit-identical to sequential"
         mj
         (Domain.recommended_domain_count ()))
    ~header:[ "workload"; "jobs"; "steps/states"; "time"; "speedup vs jobs=1" ]
    (chase_rows @ sticky_rows)

(* ------------------------------------------------------------------ *)
(* E15: the portfolio front-end vs fixed dispatch across the gallery:  *)
(* which procedure wins per dispatch class, and what the race costs    *)
(* (or saves) in wall time.  Sequential portfolio — the racers run in  *)
(* priority order with cooperative cancellation, so the numbers are    *)
(* deterministic and comparable across hosts.                          *)
(* ------------------------------------------------------------------ *)

let e15 () =
  let module D = Chase_termination.Decider in
  let answer = function
    | D.Terminating -> "terminating"
    | D.Non_terminating -> "non-terminating"
    | D.Unknown -> "unknown"
  in
  let cases =
    List.map
      (fun (s : Chase_workload.Scenarios.t) ->
        (s.Chase_workload.Scenarios.name, Chase_workload.Scenarios.tgds s))
      Chase_workload.Scenarios.all
  in
  let wins = Hashtbl.create 8 in
  let rows =
    List.map
      (fun (name, tgds) ->
        let fixed = D.decide tgds in
        let port = D.decide_portfolio tgds in
        assert (
          fixed.D.answer = D.Unknown || port.D.answer = fixed.D.answer);
        let fixed_ns = measure_ns (name ^ "/fixed") (fun () -> D.decide tgds) in
        let port_ns = measure_ns (name ^ "/portfolio") (fun () -> D.decide_portfolio tgds) in
        let fixed_m = D.method_name fixed.D.method_used in
        let winner = D.method_name port.D.method_used in
        let key = (fixed_m, winner) in
        Hashtbl.replace wins key (1 + Option.value ~default:0 (Hashtbl.find_opt wins key));
        record "E15"
          [
            ("scenario", Str name);
            ("tgds", Int (List.length tgds));
            ("fixed_method", Str fixed_m);
            ("fixed_answer", Str (answer fixed.D.answer));
            ("portfolio_winner", Str winner);
            ("portfolio_answer", Str (answer port.D.answer));
            ("racers", Int (List.length port.D.procedures));
            ("fixed_ns", Num fixed_ns);
            ("portfolio_ns", Num port_ns);
          ];
        [
          name;
          fixed_m;
          answer fixed.D.answer;
          pretty_ns fixed_ns;
          winner;
          pretty_ns port_ns;
          Printf.sprintf "%.2fx" (port_ns /. fixed_ns);
          string_of_int (List.length port.D.procedures);
        ])
      cases
  in
  table ~title:"E15a  portfolio vs fixed dispatch across the gallery (sequential race)"
    ~header:
      [ "scenario"; "fixed method"; "answer"; "fixed time"; "winner"; "portfolio time";
        "port/fixed"; "racers" ]
    rows;
  (* win rates per dispatch class: how often the raced winner differs
     from the statically chosen procedure *)
  let rows =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) wins []
    |> List.sort compare
    |> List.map (fun ((fixed_m, winner), n) ->
           record "E15"
             [
               ("fixed_method", Str fixed_m);
               ("portfolio_winner", Str winner);
               ("wins", Int n);
             ];
           [ fixed_m; winner; string_of_int n ])
  in
  table ~title:"E15b  win counts: fixed dispatch class vs raced winner"
    ~header:[ "fixed method"; "portfolio winner"; "wins" ]
    rows

(* ------------------------------------------------------------------ *)
(* E24: where a program's parse time goes.  The E11 hub programs are    *)
(* printed with their facts shuffled, the order a loader cannot rely   *)
(* on, and each repeat times three passes over the same text: the lexer *)
(* alone (every token, nothing kept), the full parse (lexer, parser and *)
(* the bulk database build) and [Instance.of_list] on the shuffled      *)
(* facts by itself.  Rows give the median and quartiles over repeats.   *)
(* ------------------------------------------------------------------ *)

let e24 () =
  let module S = Chase_workload.St_mapping in
  let programs =
    if !smoke then [ S.hub_propagation ~n:60 ~pad:240; S.hub_exchange ~n:50 ~pad:400 ]
    else [ S.hub_propagation ~n:2000 ~pad:8000; S.hub_exchange ~n:1500 ~pad:12000 ]
  in
  let repeats = if !smoke then 5 else 21 in
  (* a repeat runs its pass often enough to last about this long *)
  let target_s = if !smoke then 0.002 else 0.02 in
  (* median and quartiles of a pass, in ms per run *)
  let spread f =
    Obs.suspended @@ fun () ->
    let t0 = Unix.gettimeofday () in
    f ();
    let once = Unix.gettimeofday () -. t0 in
    let iters = max 1 (int_of_float (target_s /. Float.max once 1e-6)) in
    let per_run =
      Array.init repeats (fun _ ->
          let t0 = Unix.gettimeofday () in
          for _ = 1 to iters do
            f ()
          done;
          (Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int iters)
    in
    Array.sort Float.compare per_run;
    let at q = per_run.(int_of_float (Float.round (q *. float_of_int (repeats - 1)))) in
    (at 0.5, at 0.25, at 0.75)
  in
  let rows =
    List.map
      (fun (s : S.scenario) ->
        let rng = Random.State.make [| 24 |] in
        let facts =
          Instance.to_list s.S.database
          |> List.map (fun a -> (Random.State.bits rng, a))
          |> List.sort compare |> List.map snd
        in
        let src =
          String.concat "\n"
            (List.map Chase_parser.Printer.print_tgd s.S.tgds
            @ List.map Chase_parser.Printer.print_fact facts)
        in
        let p = Chase_parser.Parser.parse_program src in
        assert (Instance.equal (Chase_parser.Program.database p) s.S.database);
        let mb = float_of_int (String.length src) /. 1e6 in
        let lex () = Chase_parser.Lexer.(scan_rest (make src)) in
        let parse () = ignore (Chase_parser.Parser.parse_program src) in
        let load () = ignore (Instance.of_list facts) in
        (* [Gc.minor_words], exact, where a [Gc.quick_stat] delta may miss
           the words since the last minor collection *)
        let words f =
          let w0 = Gc.minor_words () in
          f ();
          Gc.minor_words () -. w0
        in
        let lex_words = words lex and parse_words = words parse in
        let ((lex_ms, _, _) as lex_s) = spread lex in
        let ((parse_ms, _, _) as parse_s) = spread parse in
        let load_s = spread load in
        let mb_per_s ms = mb /. (ms /. 1e3) in
        let fields key (p50, p25, p75) =
          [ (key ^ "_ms", Num p50); (key ^ "_ms_p25", Num p25); (key ^ "_ms_p75", Num p75) ]
        in
        record "E24"
          ([
             ("program", Str s.S.name);
             ("bytes", Int (String.length src));
             ("facts", Int (List.length facts));
             ("repeats", Int repeats);
           ]
          @ fields "lex" lex_s @ fields "parse" parse_s @ fields "of_list" load_s
          @ [
              ("lex_mb_per_s", Num (mb_per_s lex_ms));
              ("parse_mb_per_s", Num (mb_per_s parse_ms));
              ("lex_minor_words", Num lex_words);
              ("parse_minor_words", Num parse_words);
            ]);
        let cell (p50, p25, p75) = Printf.sprintf "%.3f [%.3f, %.3f]" p50 p25 p75 in
        [
          s.S.name;
          Printf.sprintf "%.0f" (float_of_int (String.length src) /. 1e3);
          cell lex_s;
          cell parse_s;
          cell load_s;
          Printf.sprintf "%.0f" (mb_per_s lex_ms);
          Printf.sprintf "%.0f" (mb_per_s parse_ms);
          Printf.sprintf "%.0f" lex_words;
          Printf.sprintf "%.0f" parse_words;
        ])
      programs
  in
  table
    ~title:
      (Printf.sprintf
         "E24  parse split on the E11 hub programs, facts shuffled (ms per run, median \
          [p25, p75] of %d repeats)"
         repeats)
    ~header:
      [ "program"; "KB"; "lex only"; "full parse"; "Instance.of_list"; "lex MB/s"; "parse MB/s";
        "lex words"; "parse words" ]
    rows

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7);
    ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12); ("E15", e15);
    ("E24", e24);
  ]

(* Each experiment runs under a stats sink so BENCH_results.json carries
   a per-experiment counter snapshot (which engine paths fired, how
   often) next to the timings — regressions become diagnosable, not just
   detectable.  Timed closures are exempt: measure_ns/once_ns suspend
   the sink, so the numbers are those of the uninstrumented hot path.
   The wall-clock row covers the whole experiment (setup, asserts and
   bechamel calibration included), making trajectory entries comparable
   at a glance even where no bechamel measurement exists. *)
let run_with_counters name f =
  let st = Obs.Stats.create () in
  let t0 = Unix.gettimeofday () in
  let (), gc = with_gc_delta (fun () -> Obs.with_sink (Obs.Stats.sink st) f) in
  let wall = Unix.gettimeofday () -. t0 in
  let fields = List.map (fun (k, v) -> (k, Int v)) (Obs.Stats.counters st) in
  record name
    ((("wall_s", Num wall) :: gc_fields gc)
    @ (if fields = [] then [] else [ ("counters", Obj fields) ]))

let () =
  Obs.set_clock Unix.gettimeofday;
  let json = ref false in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--jobs" :: n :: rest ->
        max_jobs := int_of_string n;
        parse rest
    | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
        max_jobs :=
          int_of_string (String.sub arg (String.length "--jobs=")
                           (String.length arg - String.length "--jobs="));
        parse rest
    | arg :: rest when String.starts_with ~prefix:"--" arg ->
        Printf.eprintf "unknown flag %s\n" arg;
        parse rest
    | arg :: rest ->
        names := arg :: !names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let names = List.rev !names in
  let selected = match names with [] -> List.map fst experiments | _ -> names in
  (* The environment row makes the trajectory file self-describing: which
     jobs cap the E12 sweep used, and how many cores the host admits. *)
  if !json then
    record "env"
      [
        ("jobs", Int (e12_max_jobs ()));
        ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
        ("smoke", Bool !smoke);
      ];
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> run_with_counters name f
      | None -> Printf.eprintf "unknown experiment %s\n" name)
    selected;
  if !json then begin
    write_json "BENCH_results.json";
    print_endline "wrote BENCH_results.json"
  end
