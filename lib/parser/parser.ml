(* Recursive-descent parser for the Datalog± surface syntax.

   program  ::= item* EOF
   item     ::= [name ':'] body '->' head '.'        (TGD)
              | atom '.'                             (fact)
   head     ::= ['exists' var (',' var)* '.'] atoms
   atoms    ::= atom (',' atom)*
   atom     ::= pred '(' term (',' term)* ')'
   term     ::= VARIABLE | constant
   constant ::= lowercase identifier | integer | quoted string

   A quoted string is its raw bytes, line breaks included, except that a
   doubled quote inside it stands for one quote.

   Head variables not bound in the body are implicitly existential; an
   explicit 'exists' list is also accepted (and checked). *)

open Chase_core

exception Error of { line : int; col : int; msg : string }

let error_at line col fmt = Format.kasprintf (fun msg -> raise (Error { line; col; msg })) fmt

(* The lexer's cursor, whose current token is the parser's lookahead, and
   a reusable buffer for the terms of the atom being parsed. *)
type state = { lx : Lexer.t; mutable terms : Term.t array }

let kind st = st.lx.Lexer.kind
let advance st = Lexer.next st.lx

(* An error at the current token, naming it. *)
let unexpected st fmt =
  let lx = st.lx in
  Format.kasprintf
    (fun what ->
      error_at lx.Lexer.tline lx.Lexer.tcol "%s, found %s" what (Token.to_string (Lexer.token lx)))
    fmt

let expect st k token =
  if kind st = k then advance st else unexpected st "expected %s" (Token.to_string token)

let parse_term st =
  let k = kind st in
  let mk =
    if k = Lexer.k_uident then Term.var
    else if k = Lexer.k_ident || k = Lexer.k_quoted || k = Lexer.k_number then Term.const
    else unexpected st "expected a term"
  in
  let tm = mk (Lexer.payload st.lx) in
  advance st;
  tm

let push_term st n tm =
  if n = Array.length st.terms then begin
    let terms = Array.make (2 * n) tm in
    Array.blit st.terms 0 terms 0 n;
    st.terms <- terms
  end;
  st.terms.(n) <- tm

(* Terms from the [n]th on, and the closing parenthesis; the number of
   terms. *)
let rec parse_terms st n =
  push_term st n (parse_term st);
  let k = kind st in
  if k = Lexer.k_comma then begin
    advance st;
    parse_terms st (n + 1)
  end
  else if k = Lexer.k_rparen then begin
    advance st;
    n + 1
  end
  else unexpected st "expected ',' or ')'"

(* The rest of an atom whose predicate has been read:  '(' terms ')'. *)
let parse_args st pred =
  expect st Lexer.k_lparen Token.Lparen;
  let n = parse_terms st 0 in
  Atom.make_a pred (Array.sub st.terms 0 n)

let parse_atom st =
  if kind st = Lexer.k_ident then begin
    let pred = Lexer.payload st.lx in
    advance st;
    parse_args st pred
  end
  else unexpected st "expected a predicate"

let rec more_atoms st acc =
  if kind st = Lexer.k_comma then begin
    advance st;
    more_atoms st (parse_atom st :: acc)
  end
  else List.rev acc

(* atoms, the first of which is [first] *)
let parse_more_atoms st first =
  if kind st = Lexer.k_comma then more_atoms st [ first ] else [ first ]

let parse_atoms st = parse_more_atoms st (parse_atom st)

(* ['exists' vars '.'] atoms *)
let parse_head st =
  if kind st = Lexer.k_exists then begin
    advance st;
    let rec vars acc =
      if kind st = Lexer.k_uident then begin
        let v = Lexer.payload st.lx in
        advance st;
        let k = kind st in
        if k = Lexer.k_comma then begin
          advance st;
          vars (v :: acc)
        end
        else if k = Lexer.k_dot then begin
          advance st;
          List.rev (v :: acc)
        end
        else unexpected st "expected ',' or '.'"
      end
      else unexpected st "expected a variable after 'exists'"
    in
    let vs = vars [] in
    let atoms = parse_atoms st in
    (vs, atoms)
  end
  else ([], parse_atoms st)

let check_explicit_existentials (line, col) tgd declared =
  match declared with
  | [] -> ()
  | _ ->
      let actual = Tgd.existential_vars tgd in
      List.iter
        (fun v ->
          if not (Term.Set.mem (Term.Var v) actual) then
            error_at line col "variable %s is declared existential but occurs in the body" v)
        declared;
      Term.Set.iter
        (fun x ->
          match x with
          | Term.Var v ->
              if not (List.mem v declared) then
                error_at line col "existential variable %s missing from the 'exists' list" v
          | Term.Const _ | Term.Null _ -> ())
        actual

let parse_item st ~auto_name =
  let lx = st.lx in
  let ((line, col) as start) = (lx.Lexer.tline, lx.Lexer.tcol) in
  (* an optional  name ':'  prefix: a word followed by a colon; a
     lowercase word followed by anything else is the first predicate *)
  let name, first_atoms =
    let k = kind st in
    if k = Lexer.k_ident || k = Lexer.k_uident then begin
      let word = Lexer.payload lx in
      advance st;
      if kind st = Lexer.k_colon then begin
        advance st;
        (Some word, parse_atoms st)
      end
      else if k = Lexer.k_ident then (None, parse_more_atoms st (parse_args st word))
      else error_at line col "expected a predicate, found %s" (Token.to_string (Uident word))
    end
    else (None, parse_atoms st)
  in
  let k = kind st in
  if k = Lexer.k_dot then begin
    let dot_line = lx.Lexer.tline and dot_col = lx.Lexer.tcol in
    advance st;
    match (name, first_atoms) with
    | None, [ a ] ->
        if not (Atom.is_fact a) then error_at line col "facts must be variable-free";
        `Fact a
    | None, _ -> error_at dot_line dot_col "a fact is a single atom"
    | Some _, _ -> error_at line col "facts cannot be named"
  end
  else if k = Lexer.k_arrow then begin
    advance st;
    let declared, head = parse_head st in
    expect st Lexer.k_dot Token.Dot;
    let name = match name with Some n -> n | None -> auto_name () in
    let tgd =
      try Tgd.make ~name ~body:first_atoms ~head ()
      with Tgd.Ill_formed msg -> error_at line col "%s" msg
    in
    check_explicit_existentials start tgd declared;
    `Tgd tgd
  end
  else unexpected st "expected '.' or '->'"

(* Run [f] on a cursor over [src] at its first token.  A lexical error
   anywhere wins over a syntax error before it: on a syntax error the
   rest of the input is lexed, and its first lexical error, if any, is
   raised instead. *)
let with_cursor src f =
  let st = { lx = Lexer.make src; terms = Array.make 8 (Term.Var "") } in
  try
    advance st;
    f st
  with Error _ as e ->
    Lexer.scan_rest st.lx;
    raise e

let parse_program src =
  with_cursor src (fun st ->
      let counter = ref 0 in
      let auto_name () =
        incr counter;
        Printf.sprintf "s%d" !counter
      in
      (* both collected newest first; the database is built in one bulk pass *)
      let rec go tgds facts =
        if kind st = Lexer.k_eof then
          Program.make ~tgds:(List.rev tgds) ~database:(Instance.of_list facts)
        else
          match parse_item st ~auto_name with
          | `Fact a -> go tgds (a :: facts)
          | `Tgd tgd -> go (tgd :: tgds) facts
      in
      go [] [])

let parse_tgds src = Program.tgds (parse_program src)

let parse_tgd src =
  match parse_tgds src with
  | [ t ] -> t
  | ts -> invalid_arg (Printf.sprintf "parse_tgd: %d TGDs in input" (List.length ts))

let parse_database src = Program.database (parse_program src)

let parse_atom_exn src =
  with_cursor src (fun st ->
      let a = parse_atom st in
      let k = kind st in
      if k <> Lexer.k_eof && k <> Lexer.k_dot then
        error_at st.lx.Lexer.tline st.lx.Lexer.tcol "trailing input: %s"
          (Token.to_string (Lexer.token st.lx));
      Lexer.scan_rest st.lx;
      a)

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_program (really_input_string ic (in_channel_length ic)))
