(* A hand-written streaming lexer for the Datalog± surface syntax.

   A cursor lexes one token on demand into its own mutable fields: the
   token's kind (one of the [k_] codes), the offset and length of its
   payload in the source, and its line and column.  Nothing is boxed and
   no substring is cut: the parser reads the kind as an int and cuts
   [payload] only for a term, a predicate or a name, and builds a
   [Token.t] only to print an error.  The scanning state is a byte offset
   into the source plus the offset at which the current line starts; a
   column is computed once per token.  Lookahead reads the source
   directly, with an explicit end-of-input test, so lexing a token
   allocates nothing. *)

exception Error of { line : int; col : int; msg : string }

let error line col fmt = Format.kasprintf (fun msg -> raise (Error { line; col; msg })) fmt

type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int;  (* offset of the first byte of [line] *)
  (* the current token *)
  mutable kind : int;
  mutable off : int;  (* payload offset; a quoted constant's is past its quote *)
  mutable tlen : int;  (* payload length *)
  mutable tline : int;
  mutable tcol : int;
}

(* The kinds of token, as [kind] holds them; [token] names each. *)
let k_eof = 0
and k_lparen = 1
and k_rparen = 2
and k_comma = 3
and k_arrow = 4
and k_dot = 5
and k_colon = 6
and k_exists = 7
and k_bot = 8
and k_ident = 9
and k_uident = 10
and k_quoted = 11
and k_number = 12

(* A cursor before the first token; [next] lexes it. *)
let make src =
  { src; len = String.length src; pos = 0; line = 1; line_start = 0; kind = -1; off = 0; tlen = 0;
    tline = 1; tcol = 1 }

(* 1-based byte column of [pos]. *)
let col st = st.pos - st.line_start + 1

let at_end st = st.pos >= st.len

(* The current byte; only valid when [not (at_end st)]. *)
let cur st = String.unsafe_get st.src st.pos

(* Step over the current byte, counting a line break. *)
let advance st =
  if cur st = '\n' then begin
    st.line <- st.line + 1;
    st.line_start <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_ident_start c = c >= 'a' && c <= 'z'
let is_var_start c = (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let rec skip_trivia st =
  if not (at_end st) then
    match cur st with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_trivia st
    | '%' ->
        skip_line st;
        skip_trivia st
    | '/' when st.pos + 1 < st.len && st.src.[st.pos + 1] = '/' ->
        skip_line st;
        skip_trivia st
    | _ -> ()

(* Up to, not past, the end of the line. *)
and skip_line st =
  while (not (at_end st)) && cur st <> '\n' do
    st.pos <- st.pos + 1
  done

(* Neither words nor digit runs contain a line break, so these move [pos]
   alone. *)
let rec skip_ident_chars st =
  if (not (at_end st)) && is_ident_char (cur st) then begin
    st.pos <- st.pos + 1;
    skip_ident_chars st
  end

let rec skip_digits st =
  if (not (at_end st)) && is_digit (cur st) then begin
    st.pos <- st.pos + 1;
    skip_digits st
  end

(* A quoted constant is the raw bytes between the quotes, line breaks
   included; [pos] ends past the closing quote. *)
let rec skip_quoted st line col =
  if at_end st then error line col "unterminated string"
  else if cur st = '"' then advance st
  else begin
    advance st;
    skip_quoted st line col
  end

let lex_quoted st =
  let line = st.line and col = col st in
  advance st (* opening quote *);
  skip_quoted st line col

(* Integer constants: a maximal digit run.  A digit run glued to
   identifier characters ("123foo") is a malformed token, not a
   predicate name — report it as such instead of mis-lexing. *)
let lex_number st =
  let line = st.line and col = col st in
  let start = st.pos in
  skip_digits st;
  if (not (at_end st)) && is_ident_char (cur st) then begin
    skip_ident_chars st;
    error line col "malformed number %S (identifiers must start with a lowercase letter)"
      (String.sub st.src start (st.pos - start))
  end

(* Does the source hold [w] at [off, off + len)? *)
let rec same_from src off w k =
  k = String.length w
  || (String.unsafe_get src (off + k) = String.unsafe_get w k && same_from src off w (k + 1))

let is_word src off len w = len = String.length w && same_from src off w 0

(* Step over a one-byte token. *)
let step st kind =
  st.pos <- st.pos + 1;
  kind

(* Lex the next token into [st]'s token fields.  At the end of input the
   token is [Eof], and stays [Eof] on further calls. *)
let next st =
  skip_trivia st;
  let line = st.line and col = col st in
  let start = st.pos in
  let kind =
    if at_end st then k_eof
    else
      match cur st with
      | '(' -> step st k_lparen
      | ')' -> step st k_rparen
      | ',' -> step st k_comma
      | '.' -> step st k_dot
      | ':' -> step st k_colon
      | '"' ->
          lex_quoted st;
          k_quoted
      | '-' ->
          st.pos <- st.pos + 1;
          if (not (at_end st)) && cur st = '>' then step st k_arrow
          else error line col "expected '>' after '-'"
      | c when is_digit c ->
          lex_number st;
          k_number
      | c when is_var_start c ->
          skip_ident_chars st;
          k_uident
      | c when is_ident_start c ->
          skip_ident_chars st;
          let len = st.pos - start in
          if is_word st.src start len "exists" then k_exists
          else if is_word st.src start len "false" then k_bot
          else k_ident
      | c -> error line col "unexpected character %C" c
  in
  st.kind <- kind;
  st.tline <- line;
  st.tcol <- col;
  (* a quoted constant's payload is without its quotes *)
  if kind = k_quoted then begin
    st.off <- start + 1;
    st.tlen <- st.pos - start - 2
  end
  else begin
    st.off <- start;
    st.tlen <- st.pos - start
  end

(* Lex past the end of input without keeping a token, so that a lexical
   error after the current token still wins over a syntax error before
   it. *)
let scan_rest st =
  while st.kind <> k_eof do
    next st
  done

(* The current token's payload. *)
let payload st = String.sub st.src st.off st.tlen

(* The current token, boxed, for an error message. *)
let token st : Token.t =
  let kind = st.kind in
  if kind = k_eof then Eof
  else if kind = k_lparen then Lparen
  else if kind = k_rparen then Rparen
  else if kind = k_comma then Comma
  else if kind = k_arrow then Arrow
  else if kind = k_dot then Dot
  else if kind = k_colon then Colon
  else if kind = k_exists then Exists
  else if kind = k_bot then Bot
  else if kind = k_ident then Ident (payload st)
  else if kind = k_uident then Uident (payload st)
  else if kind = k_quoted then Quoted (payload st)
  else Number (payload st)
