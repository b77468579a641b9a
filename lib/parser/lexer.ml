(* A hand-written lexer for the Datalog± surface syntax.

   The state is a byte offset into the source plus the offset at which
   the current line starts; a column is computed only when a token or an
   error needs one.  Lookahead reads the source directly, with an explicit
   end-of-input test, so scanning allocates nothing per character. *)

exception Error of { line : int; col : int; msg : string }

let error line col fmt = Format.kasprintf (fun msg -> raise (Error { line; col; msg })) fmt

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int;  (* offset of the first byte of [line] *)
}

let make src = { src; len = String.length src; pos = 0; line = 1; line_start = 0 }

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
  match String.index_from_opt st.src st.pos '\n' with
  | Some j -> st.pos <- j
  | None -> st.pos <- st.len

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
let lex_quoted st =
  let line = st.line and col = col st in
  advance st (* opening quote *);
  let rec go () =
    if at_end st then error line col "unterminated string"
    else if cur st = '"' then advance st
    else begin
      advance st;
      go ()
    end
  in
  go ()

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

(* The token stream of a whole input, packed three ints per token in one
   array: kind and payload length ([kind lor (len lsl 4)]), payload
   offset, and line and column ([(line lsl 31) lor col], each capped at
   [max_pos]).  A token is boxed into a [Token.located] only when the
   parser reaches it, so lexing a large program leaves no per-token heap
   blocks behind; the array is the lexer's one large allocation, and the
   largest of a parse. *)
type tokens = { text : string; mutable data : int array; mutable count : int }

let stride = 3

(* 2^31 - 1: a line or column past it (a 2 GiB line) is reported as it *)
let max_pos = 0x7fffffff

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

let push b kind off len line col =
  let o = b.count * stride in
  if o + stride > Array.length b.data then begin
    let data = Array.make (2 * Array.length b.data) 0 in
    Array.blit b.data 0 data 0 o;
    b.data <- data
  end;
  let d = b.data in
  d.(o) <- kind lor (len lsl 4);
  d.(o + 1) <- off;
  d.(o + 2) <- (min line max_pos lsl 31) lor min col max_pos;
  b.count <- b.count + 1

(* Does the source hold [w] at [off, off + len)? *)
let is_word src off len w =
  len = String.length w
  &&
  let rec go k = k = len || (String.unsafe_get src (off + k) = String.unsafe_get w k && go (k + 1)) in
  go 0

(* Step over a one-byte token. *)
let step st kind =
  st.pos <- st.pos + 1;
  kind

(* Lex one token into [b]; false once it was [Eof]. *)
let lex_one b st =
  skip_trivia st;
  let line = st.line and col = col st in
  let start = st.pos in
  if at_end st then begin
    push b k_eof start 0 line col;
    false
  end
  else begin
    let kind =
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
    (* a quoted constant's payload is without its quotes *)
    if kind = k_quoted then push b kind (start + 1) (st.pos - start - 2) line col
    else push b kind start (st.pos - start) line col;
    true
  end

(* Tokenize the whole input up front, so a lexical error anywhere wins
   over a syntax error before it.  The stream always ends with [Eof]. *)
let tokenize src =
  (* program text runs about 2.3 bytes per token; room for one token per
     two bytes makes regrowing rare *)
  let b = { text = src; data = Array.make (stride * (16 + (String.length src / 2))) 0; count = 0 } in
  let st = make src in
  while lex_one b st do
    ()
  done;
  b

let count b = b.count

(* The [i]th token, boxed. *)
let token b i : Token.located =
  let o = i * stride in
  let d = b.data in
  let kind = d.(o) land 15 in
  let token : Token.t =
    (* the codes of the [k_] constants above *)
    if kind <= 8 then
      match kind with
      | 0 -> Eof
      | 1 -> Lparen
      | 2 -> Rparen
      | 3 -> Comma
      | 4 -> Arrow
      | 5 -> Dot
      | 6 -> Colon
      | 7 -> Exists
      | _ -> Bot
    else
      let payload = String.sub b.text d.(o + 1) (d.(o) lsr 4) in
      match kind with
      | 9 -> Ident payload
      | 10 -> Uident payload
      | 11 -> Quoted payload
      | _ -> Number payload
  in
  { token; line = d.(o + 2) lsr 31; col = d.(o + 2) land max_pos }
