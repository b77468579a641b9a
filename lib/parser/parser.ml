(* Recursive-descent parser for the Datalog± surface syntax.

   program  ::= item* EOF
   item     ::= [name ':'] body '->' head '.'        (TGD)
              | atom '.'                             (fact)
   head     ::= ['exists' var (',' var)* '.'] atoms
   atoms    ::= atom (',' atom)*
   atom     ::= pred '(' term (',' term)* ')'
   term     ::= VARIABLE | constant
   constant ::= lowercase identifier | integer | quoted string

   Head variables not bound in the body are implicitly existential; an
   explicit 'exists' list is also accepted (and checked). *)

open Chase_core

exception Error of { line : int; col : int; msg : string }

let error (t : Token.located) fmt =
  Format.kasprintf (fun msg -> raise (Error { line = t.line; col = t.col; msg })) fmt

(* A cursor over [Lexer.tokenize]'s stream, which always ends with an
   [Eof] token; [advance] keeps that final token, so the stream is never
   exhausted.  [cur] is the boxed token at [i]. *)
type state = { toks : Lexer.tokens; mutable i : int; mutable cur : Token.located }

let cursor src =
  let toks = Lexer.tokenize src in
  { toks; i = 0; cur = Lexer.token toks 0 }

let peek st = st.cur

let peek2 st = if st.i + 1 < Lexer.count st.toks then Some (Lexer.token st.toks (st.i + 1)) else None

let advance st =
  if st.i + 1 < Lexer.count st.toks then begin
    st.i <- st.i + 1;
    st.cur <- Lexer.token st.toks st.i
  end

let expect st token =
  let t = peek st in
  if t.token = token then advance st
  else error t "expected %s, found %s" (Token.to_string token) (Token.to_string t.token)

let parse_term st =
  let t = peek st in
  match t.token with
  | Token.Uident v ->
      advance st;
      Term.Var v
  | Token.Ident c ->
      advance st;
      Term.Const c
  | Token.Quoted c ->
      advance st;
      Term.Const c
  | Token.Number c ->
      advance st;
      Term.Const c
  | tok -> error t "expected a term, found %s" (Token.to_string tok)

let parse_atom st =
  let t = peek st in
  match t.token with
  | Token.Ident pred ->
      advance st;
      expect st Token.Lparen;
      let rec terms acc =
        let tm = parse_term st in
        let t = peek st in
        match t.token with
        | Token.Comma ->
            advance st;
            terms (tm :: acc)
        | Token.Rparen ->
            advance st;
            List.rev (tm :: acc)
        | tok -> error t "expected ',' or ')', found %s" (Token.to_string tok)
      in
      Atom.make pred (terms [])
  | tok -> error t "expected a predicate, found %s" (Token.to_string tok)

let parse_atoms st =
  let rec go acc =
    let a = parse_atom st in
    let t = peek st in
    match t.token with
    | Token.Comma ->
        advance st;
        go (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  go []

(* ['exists' vars '.'] atoms *)
let parse_head st =
  let t = peek st in
  match t.token with
  | Token.Exists ->
      advance st;
      let rec vars acc =
        let t = peek st in
        match t.token with
        | Token.Uident v -> (
            advance st;
            let t2 = peek st in
            match t2.token with
            | Token.Comma ->
                advance st;
                vars (v :: acc)
            | Token.Dot ->
                advance st;
                List.rev (v :: acc)
            | tok -> error t2 "expected ',' or '.', found %s" (Token.to_string tok))
        | tok -> error t "expected a variable after 'exists', found %s" (Token.to_string tok)
      in
      let vs = vars [] in
      let atoms = parse_atoms st in
      (vs, atoms)
  | _ -> ([], parse_atoms st)

let check_explicit_existentials (t : Token.located) tgd declared =
  match declared with
  | [] -> ()
  | _ ->
      let actual = Tgd.existential_vars tgd in
      List.iter
        (fun v ->
          if not (Term.Set.mem (Term.Var v) actual) then
            error t "variable %s is declared existential but occurs in the body" v)
        declared;
      Term.Set.iter
        (fun x ->
          match x with
          | Term.Var v ->
              if not (List.mem v declared) then
                error t "existential variable %s missing from the 'exists' list" v
          | Term.Const _ | Term.Null _ -> ())
        actual

let parse_item st ~auto_name =
  let start = peek st in
  (* optional  name ':'  prefix *)
  let name =
    match (start.token, peek2 st) with
    | (Token.Ident n | Token.Uident n), Some { token = Token.Colon; _ } ->
        advance st;
        advance st;
        Some n
    | _ -> None
  in
  let first_atoms = parse_atoms st in
  let t = peek st in
  match t.token with
  | Token.Dot -> (
      advance st;
      match (name, first_atoms) with
      | None, [ a ] ->
          if not (Atom.is_fact a) then error start "facts must be variable-free";
          `Fact a
      | None, _ -> error t "a fact is a single atom"
      | Some _, _ -> error start "facts cannot be named")
  | Token.Arrow ->
      advance st;
      let declared, head = parse_head st in
      expect st Token.Dot;
      let name = match name with Some n -> n | None -> auto_name () in
      let tgd =
        try Tgd.make ~name ~body:first_atoms ~head ()
        with Tgd.Ill_formed msg -> error start "%s" msg
      in
      check_explicit_existentials start tgd declared;
      `Tgd tgd
  | tok -> error t "expected '.' or '->', found %s" (Token.to_string tok)

let parse_program src =
  let st = cursor src in
  let counter = ref 0 in
  let auto_name () =
    incr counter;
    Printf.sprintf "s%d" !counter
  in
  (* both collected newest first; the database is built in one bulk pass *)
  let rec go tgds facts =
    let t = peek st in
    match t.token with
    | Token.Eof -> Program.make ~tgds:(List.rev tgds) ~database:(Instance.of_list facts)
    | _ -> (
        match parse_item st ~auto_name with
        | `Fact a -> go tgds (a :: facts)
        | `Tgd tgd -> go (tgd :: tgds) facts)
  in
  go [] []

let parse_tgds src = Program.tgds (parse_program src)

let parse_tgd src =
  match parse_tgds src with
  | [ t ] -> t
  | ts -> invalid_arg (Printf.sprintf "parse_tgd: %d TGDs in input" (List.length ts))

let parse_database src = Program.database (parse_program src)

let parse_atom_exn src =
  let st = cursor src in
  let a = parse_atom st in
  (match (peek st).token with
  | Token.Eof | Token.Dot -> ()
  | tok -> error (peek st) "trailing input: %s" (Token.to_string tok));
  a

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_program (really_input_string ic (in_channel_length ic)))
