(* Tests for the surface syntax: lexer, parser, printer round-trips. *)

open Chase_core
open Chase_parser

let unit_tests =
  [
    Alcotest.test_case "parse a named TGD with explicit exists" `Quick (fun () ->
        let t = Parser.parse_tgd "wa: r(X,Y) -> exists Z. r(Y,Z)." in
        Alcotest.(check string) "name" "wa" (Tgd.name t);
        Alcotest.(check int) "body" 1 (List.length (Tgd.body t));
        Alcotest.(check int) "existential" 1 (Term.Set.cardinal (Tgd.existential_vars t)));
    Alcotest.test_case "implicit existentials" `Quick (fun () ->
        let t = Parser.parse_tgd "r(X,Y) -> r(Y,Z)." in
        Alcotest.(check bool) "Z existential" true
          (Term.Set.mem (Term.Var "Z") (Tgd.existential_vars t)));
    Alcotest.test_case "facts and comments" `Quick (fun () ->
        let p =
          Parser.parse_program
            "% a comment\nr(a,b). // another\nr(b, \"odd constant\")."
        in
        Alcotest.(check int) "two facts" 2 (Instance.cardinal (Program.database p)));
    Alcotest.test_case "multi-head TGDs parse" `Quick (fun () ->
        let t = Parser.parse_tgd "r(X,Y,Y) -> exists Z. r(X,Z,Y), r(Z,Y,Y)." in
        Alcotest.(check int) "two head atoms" 2 (List.length (Tgd.head t));
        Alcotest.(check bool) "not single head" false (Tgd.is_single_head t));
    Alcotest.test_case "facts with variables are rejected" `Quick (fun () ->
        match Parser.parse_program "r(a,X)." with
        | exception Parser.Error _ -> ()
        | _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "wrong exists list is rejected" `Quick (fun () ->
        match Parser.parse_program "r(X,Y) -> exists X. r(X,Y)." with
        | exception Parser.Error _ -> ()
        | _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "unterminated atom is rejected with a position" `Quick (fun () ->
        match Parser.parse_program "r(a,b" with
        | exception Parser.Error { line; _ } -> Alcotest.(check int) "line" 1 line
        | exception Lexer.Error { line; _ } -> Alcotest.(check int) "line" 1 line
        | _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "integer constants lex as numbers" `Quick (fun () ->
        let p = Parser.parse_program "r(1,2). r(1,c3)." in
        let db = Program.database p in
        Alcotest.(check int) "two facts" 2 (Instance.cardinal db);
        Alcotest.(check bool) "1 is a constant" true
          (Instance.exists (fun a -> List.mem (Term.Const "1") (Atom.args a)) db));
    Alcotest.test_case "a digit run glued to letters is malformed" `Quick (fun () ->
        let contains_sub s sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        match Parser.parse_program "r(123foo)." with
        | exception Lexer.Error { line; msg; _ } ->
            Alcotest.(check int) "line" 1 line;
            Alcotest.(check bool) "mentions the token" true (contains_sub msg "123foo")
        | _ -> Alcotest.fail "expected a lexer error");
    Alcotest.test_case "identifiers cannot start with a digit" `Quick (fun () ->
        match Parser.parse_program "1r(a)." with
        | exception Lexer.Error { line; _ } -> Alcotest.(check int) "line" 1 line
        | exception Parser.Error { line; _ } -> Alcotest.(check int) "line" 1 line
        | _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "truncated input reports a positioned error" `Quick (fun () ->
        List.iter
          (fun src ->
            match Parser.parse_program src with
            | exception Parser.Error { line; _ } ->
                Alcotest.(check bool) (src ^ " line positive") true (line >= 1)
            | exception Lexer.Error { line; _ } ->
                Alcotest.(check bool) (src ^ " line positive") true (line >= 1)
            | _ -> Alcotest.fail ("expected an error for " ^ String.escaped src))
          [ "r(a,b) ->"; "r(a,b) -> exists"; "r(a,b) -> exists Z"; "r(X) -> s(X)"; "name:" ]);
    Alcotest.test_case "comments-only input is the empty program" `Quick (fun () ->
        let p = Parser.parse_program "% nothing here\n// nor here\n" in
        Alcotest.(check int) "no tgds" 0 (List.length (Program.tgds p));
        Alcotest.(check bool) "no facts" true (Instance.is_empty (Program.database p)));
    Alcotest.test_case "printer round-trips programs" `Quick (fun () ->
        let src =
          "s1: r(X,Y), t(Y) -> exists Z. p(X,Z).\ns2: p(X,Y) -> exists Z. p(Y,Z).\n\
           r(a,b). t(b)."
        in
        let p1 = Parser.parse_program src in
        let printed = Printer.print_program p1 in
        let p2 = Parser.parse_program printed in
        Alcotest.(check int) "same tgd count" (List.length (Program.tgds p1))
          (List.length (Program.tgds p2));
        Alcotest.(check bool) "same database" true
          (Instance.equal (Program.database p1) (Program.database p2));
        List.iter2
          (fun a b ->
            Alcotest.(check string) "same tgd" (Tgd.to_string a) (Tgd.to_string b))
          (Program.tgds p1) (Program.tgds p2));
    Alcotest.test_case "printer renames non-conventional variables" `Quick (fun () ->
        let t =
          Tgd.make ~name:"t"
            ~body:[ Atom.make "r" [ Term.Var "x"; Term.Var "y" ] ]
            ~head:[ Atom.make "r" [ Term.Var "y"; Term.Var "z" ] ]
            ()
        in
        let printed = Printer.print_tgd t in
        let t' = Parser.parse_tgd printed in
        Alcotest.(check int) "frontier size preserved" 1
          (Term.Set.cardinal (Tgd.frontier t')));
    Alcotest.test_case "schema of a program" `Quick (fun () ->
        let p = Parser.parse_program "r(X,Y) -> exists Z. t(X,Y,Z).\nr(a,b)." in
        let s = Program.schema p in
        Alcotest.(check (option int)) "r/2" (Some 2) (Schema.arity "r" s);
        Alcotest.(check (option int)) "t/3" (Some 3) (Schema.arity "t" s));
    Alcotest.test_case "the shipped data/ programs load" `Quick (fun () ->
        (* dune runs tests in _build/default/test; the data files are two
           levels up in the source tree *)
        let dir =
          List.find_opt Sys.file_exists [ "../../../data"; "../../data"; "data" ]
        in
        match dir with
        | None -> () (* data directory not reachable from the sandbox; skip *)
        | Some dir ->
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".chase")
            |> List.iter (fun f ->
                   let p = Parser.load_file (Filename.concat dir f) in
                   Alcotest.(check bool) (f ^ " has TGDs") true (Program.tgds p <> []);
                   Alcotest.(check bool)
                     (f ^ " has facts")
                     true
                     (not (Instance.is_empty (Program.database p)))));
  ]

(* Positions and messages of lexical errors, pinned so that the lexer can
   be rewritten without moving any of them.  Columns count bytes from 1;
   a '\r' before '\n' is an ordinary character at the end of its line. *)
let lexical_errors =
  [
    ("r(a,b).\nr(a,#).", 2, 5, "unexpected character '#'");
    ("r(a,b) - s(a).", 1, 8, "expected '>' after '-'");
    ( "r(123foo).",
      1,
      3,
      "malformed number \"123foo\" (identifiers must start with a lowercase letter)" );
    ("r(\"abc", 1, 3, "unterminated string");
    ("r(a,b).\r\nr(c,d).\r\nr(e,$).", 3, 5, "unexpected character '$'");
    ("% c\n// c\n  r(a,@).", 3, 7, "unexpected character '@'");
    ("% c\r\n// c\r\nr(a,b) -< s(a).", 3, 8, "expected '>' after '-'");
    ("r(a).\nr(\"ab\ncd", 2, 3, "unterminated string");
    ("r(\"a\nb\"). r(^).", 2, 8, "unexpected character '^'");
    ("\tr(a,!).", 1, 6, "unexpected character '!'");
    ( "r(a,b) -> s(b). % tail\n  12x(a).",
      2,
      3,
      "malformed number \"12x\" (identifiers must start with a lowercase letter)" );
    ("r(a). // x\r\n\r\n   \"open", 3, 4, "unterminated string");
    (* a syntax error on line 1 loses to the lexical error on line 2:
       the whole input is lexed before parsing starts *)
    ("r(a,b) s(c).\nr(#).", 2, 3, "unexpected character '#'");
    (* the same holds for errors found in an 'exists' list or after a TGD
       is built, and for a fact with a variable *)
    ("r(X) -> exists Y Z. s(X,Y).\nr(#).", 2, 3, "unexpected character '#'");
    ("r(X,Y) -> exists X. r(X,Y).\nr(\"abc", 2, 3, "unterminated string");
    ("r(a,X).\n% c\nr(@).", 3, 3, "unexpected character '@'");
    ("r(a) -", 1, 6, "expected '>' after '-'");
    ("-", 1, 1, "expected '>' after '-'");
  ]

(* Syntax errors carry the offending token's position. *)
let syntax_errors =
  [
    ("r(a,b).\r\nr(c d).", 2, 5, "expected ',' or ')', found identifier \"d\"");
    ("% c\n\"x y\"(a).", 2, 1, "expected a predicate, found constant \"x y\"");
    ("r(\"a\nb\") s(c).", 2, 5, "expected '.' or '->', found identifier \"s\"");
    ("r(a) -> exists Y Z. s(a,Y).", 1, 18, "expected ',' or '.', found variable \"Z\"");
    ( "r(a) -> exists y. s(a,y).",
      1,
      16,
      "expected a variable after 'exists', found identifier \"y\"" );
    ("r(X,Y) -> exists X. r(X,Y).", 1, 1, "variable X is declared existential but occurs in the body");
    ( "n: r(X) -> exists Z. s(X,Z,W).",
      1,
      1,
      "existential variable W missing from the 'exists' list" );
    ("X: r(a).", 1, 1, "facts cannot be named");
    ("r(a), s(b).", 1, 11, "a fact is a single atom");
    ("\n X(a).", 2, 2, "expected a predicate, found variable \"X\"");
    ("r(a) -> s(a)", 1, 13, "expected '.', found end of input");
    ("r -> s(a).", 1, 3, "expected '(', found '->'");
    ("r(->).", 1, 3, "expected a term, found '->'");
  ]

(* A syntax error on the last line of a program of about 150 KB keeps its
   line and column. *)
let long_program_error =
  Alcotest.test_case "syntax error at the end of a 150 KB program" `Quick (fun () ->
      let b = Buffer.create 160_000 in
      let lines = ref 0 in
      while Buffer.length b < 150_000 do
        incr lines;
        Printf.bprintf b "edge(n%d, \"v %d\"). %% fact %d\r\n" !lines !lines !lines
      done;
      Buffer.add_string b "  edge(a b).";
      match Parser.parse_program (Buffer.contents b) with
      | exception Parser.Error { line; col; msg } ->
          Alcotest.(check (triple int int string))
            "line, col, msg"
            (!lines + 1, 10, "expected ',' or ')', found identifier \"b\"")
            (line, col, msg)
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected an error")

(* A single atom is lexed to the end of its input as well. *)
let atom_trailing_lexical_error =
  Alcotest.test_case "parse_atom_exn reports a lexical error after the atom" `Quick (fun () ->
      match Parser.parse_atom_exn "r(a). #" with
      | exception Lexer.Error { line; col; msg } ->
          Alcotest.(check (triple int int string))
            "line, col, msg" (1, 7, "unexpected character '#'") (line, col, msg)
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected an error")

let error_position_tests =
  let case kind (src, line, col, msg) =
    Alcotest.test_case (kind ^ " error at " ^ String.escaped src) `Quick (fun () ->
        let check (l, c, m) =
          Alcotest.(check (triple int int string)) "line, col, msg" (line, col, msg) (l, c, m)
        in
        match Parser.parse_program src with
        | exception Lexer.Error { line; col; msg } when kind = "lexical" -> check (line, col, msg)
        | exception Parser.Error { line; col; msg } when kind = "syntax" -> check (line, col, msg)
        | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
        | _ -> Alcotest.fail "expected an error")
  in
  List.map (case "lexical") lexical_errors
  @ List.map (case "syntax") syntax_errors
  @ [ long_program_error; atom_trailing_lexical_error ]

(* parse . print is the identity on the materialize benchmark's program
   families (at small sizes). *)
let family_round_trips =
  let module S = Chase_workload.St_mapping in
  let st (s : S.scenario) = (s.S.name, s.S.tgds, s.S.database) in
  let families =
    [
      ( "ontology",
        Parser.parse_tgds
          "o1: employee(E) -> exists T. member(E,T).\no2: member(E,T) -> team(T).\n\
           o3: team(T) -> exists E. member(E,T).\no4: member(E,T) -> employee(E).",
        Chase_workload.Db_gen.unary ~pred:"employee" ~count:20 );
      st (S.doctors ~patients:20);
      st (S.deep ~depth:3 ~width:4);
      st (S.join_heavy ~rows:10);
      st (S.hub_propagation ~n:20 ~pad:40);
      st (S.hub_exchange ~n:20 ~pad:40);
    ]
  in
  List.map
    (fun (name, tgds, database) ->
      Alcotest.test_case ("parse . print round-trips " ^ name) `Quick (fun () ->
          let p = Parser.parse_program (Printer.print_program (Program.make ~tgds ~database)) in
          Alcotest.(check (list string))
            "same TGDs" (List.map Tgd.to_string tgds)
            (List.map Tgd.to_string (Program.tgds p));
          Alcotest.(check bool) "same database" true (Instance.equal database (Program.database p))))
    families

(* Every token's (line, col) points at its own text in the source, on
   random inputs over the lexer's interesting bytes. *)
let position_property =
  let offset_of src line col =
    let rec go off l = if l = line then off + col - 1 else go (String.index_from src off '\n' + 1) (l + 1) in
    go 0 1
  in
  let text_of (t : Token.t) =
    match t with
    | Ident s | Uident s | Number s -> Some s
    | Quoted s -> Some ("\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\"")
    | Lparen -> Some "("
    | Rparen -> Some ")"
    | Comma -> Some ","
    | Arrow -> Some "->"
    | Dot -> Some "."
    | Colon -> Some ":"
    | Exists -> Some "exists"
    | Bot -> Some "false"
    | Eof -> None
  in
  (* the tokens of [src] with their positions, the last one [Eof] *)
  let tokens src =
    let lx = Lexer.make src in
    let rec go acc =
      Lexer.next lx;
      let acc = (Lexer.token lx, lx.Lexer.tline, lx.Lexer.tcol) :: acc in
      if lx.Lexer.kind = Lexer.k_eof then List.rev acc else go acc
    in
    go []
  in
  let gen =
    QCheck2.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'x'; 'X'; '_'; '1'; ' '; '\n'; '\r'; '\t'; '('; ')'; ','; '.';
                                 ':'; '-'; '>'; '"'; '%'; '/'; '#' ])
        (int_range 0 60))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"token positions point at the token's text" ~count:2000
       ~print:String.escaped gen (fun src ->
         match tokens src with
         | exception Lexer.Error { line; col; _ } ->
             let off = offset_of src line col in
             off >= 0 && off < String.length src
         | toks ->
             let n = List.length toks in
             List.for_all
               (fun (i, (t, line, col)) ->
                 match text_of t with
                 | None -> i = n - 1
                 | Some w ->
                     let off = offset_of src line col in
                     off + String.length w <= String.length src
                     && String.sub src off (String.length w) = w)
               (List.mapi (fun i t -> (i, t)) toks)))

(* Programs of the fuzz oracle's generator, some of whose constants are
   swapped for ones that need quoting, lex as numbers or look like
   keywords, comments or punctuation, printed with comment lines, trailing
   comments and, in half the cases, CRLF line ends. *)
let decorated_program_gen =
  let odd_constants =
    [ "42"; "007"; "7up"; "Upper"; "_u"; "exists"; "false"; "a b"; ""; "x,y"; "(r)"; "->"; "a.b";
      "% not a comment"; "// nor this"; "back\\slash"; "tab\there"; "two\nlines"; "caf\xc3\xa9";
      "a\"b"; "\""; "\"\""; "x\""; "\"q\"" ]
  in
  QCheck2.Gen.(
    map
      (fun (profile, seed) ->
        let case = Chase_check.Gen.generate ~profile ~seed in
        let rng = Random.State.make [| seed; 24 |] in
        let odd t =
          match t with
          | Term.Const _ when Random.State.int rng 3 = 0 ->
              Term.Const (List.nth odd_constants (Random.State.int rng (List.length odd_constants)))
          | t -> t
        in
        let tgds =
          List.map
            (fun t ->
              Tgd.make ~name:(Tgd.name t) ~body:(List.map (Atom.map odd) (Tgd.body t))
                ~head:(List.map (Atom.map odd) (Tgd.head t)) ())
            case.Chase_check.Gen.tgds
        in
        let program = Program.make ~tgds ~database:(Instance.map (Atom.map odd) case.database) in
        let eol = if Random.State.bool rng then "\r\n" else "\n" in
        let b = Buffer.create 1024 in
        (* one item per line, as [Printer.print_program] writes them; a
           quoted constant may hold a line break of its own *)
        List.iter
          (fun item ->
            (match Random.State.int rng 4 with
            | 0 -> Printf.bprintf b "%% a \"comment\" -> r(X).%s" eol
            | 1 -> Printf.bprintf b "  // another # one%s" eol
            | _ -> ());
            Buffer.add_string b item;
            if Random.State.int rng 3 = 0 then Buffer.add_string b " % trailing (";
            Buffer.add_string b eol)
          (List.map Printer.print_tgd tgds
          @ List.map Printer.print_fact (Instance.to_list (Program.database program)));
        (program, Buffer.contents b))
      (pair (oneofl Chase_check.Profile.all) (int_bound 1_000_000)))

let round_trip_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse (print p) = p, with comments, odd constants and CRLF"
       ~count:1000
       ~print:snd decorated_program_gen (fun (p, src) ->
         let same q =
           List.equal Tgd.equal (Program.tgds p) (Program.tgds q)
           && Instance.equal (Program.database p) (Program.database q)
         in
         same (Parser.parse_program (Printer.print_program p)) && same (Parser.parse_program src)))

(* Every prefix of a printed program parses or raises a positioned error
   whose position lies within the prefix or just past its end. *)
let truncation_property =
  let offset_of src line col =
    let rec go off l =
      if l = line then Some (off + col - 1)
      else match String.index_from_opt src off '\n' with Some j -> go (j + 1) (l + 1) | None -> None
    in
    if line < 1 || col < 1 then None else go 0 1
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"every prefix of a program parses or raises a positioned error"
       ~count:200 ~print:snd decorated_program_gen (fun (_, src) ->
         List.for_all
           (fun n ->
             let prefix = String.sub src 0 n in
             let positioned line col =
               match offset_of prefix line col with Some off -> off <= n | None -> false
             in
             match Parser.parse_program prefix with
             | _ -> true
             | exception Lexer.Error { line; col; _ } -> positioned line col
             | exception Parser.Error { line; col; _ } -> positioned line col
             | exception e -> QCheck2.Test.fail_reportf "prefix %d: %s" n (Printexc.to_string e))
           (List.init (String.length src + 1) Fun.id)))

(* A doubled quote inside a quoted constant is one quote; the printer
   writes a quote that way, and refuses a predicate no text can hold. *)
let quote_tests =
  [
    Alcotest.test_case "a doubled quote in a quoted constant is one quote" `Quick (fun () ->
        let db = Program.database (Parser.parse_program "r(\"a\"\"b\"). r(\"\"\"\"). r(\"\").") in
        Alcotest.(check (list string))
          "constants" [ ""; "\""; "a\"b" ]
          (List.sort compare
             (List.map
                (fun a -> match Atom.args a with [ Term.Const c ] -> c | _ -> "?")
                (Instance.to_list db))));
    Alcotest.test_case "a quote-bearing constant prints with doubled quotes" `Quick (fun () ->
        let a = Atom.make "r" [ Term.Const "a\"b" ] in
        Alcotest.(check string) "printed" "r(\"a\"\"b\")." (Printer.print_fact a);
        Alcotest.(check bool) "round-trips" true
          (Instance.mem a (Program.database (Parser.parse_program (Printer.print_fact a)))));
    Alcotest.test_case "a predicate that is not an identifier does not print" `Quick (fun () ->
        List.iter
          (fun p ->
            match Printer.print_fact (Atom.make p [ Term.Const "c" ]) with
            | exception Invalid_argument msg ->
                Alcotest.(check string)
                  "names the predicate"
                  (Printf.sprintf "Printer: predicate %S is not an identifier" p)
                  msg
            | s -> Alcotest.failf "printed %S" s)
          [ "P q"; "Upper"; "exists"; ""; "r(x)" ]);
  ]

let suite =
  [
    ("parser", unit_tests @ [ position_property ]);
    ("parser positions", error_position_tests);
    ( "parser round-trips",
      family_round_trips @ [ round_trip_property; truncation_property ] @ quote_tests );
  ]
