(* Minimal JSON: just enough for the chasectl serve wire protocol
   (docs/SERVICE.md), with positioned parse errors so a malformed
   request line gets a line/col diagnostic instead of a crash.  No
   external dependency — the repo's policy is stdlib + unix only. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of { line : int; col : int; msg : string }

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int; mutable line : int; mutable bol : int }

let error st msg = raise (Error { line = st.line; col = st.pos - st.bol + 1; msg })

let peek st = if st.pos >= String.length st.src then None else Some st.src.[st.pos]

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> error st (Printf.sprintf "expected '%c', found '%c'" c d)
  | None -> error st (Printf.sprintf "expected '%c', found end of input" c)

let keyword st kw value =
  let n = String.length kw in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = kw then begin
    for _ = 1 to n do
      advance st
    done;
    value
  end
  else error st (Printf.sprintf "expected '%s'" kw)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                (* int_of_string would also accept OCaml literal syntax
                   (underscores, a second 0x) — require 4 hex digits. *)
                let digit c =
                  match c with
                  | '0' .. '9' -> Char.code c - Char.code '0'
                  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                  | _ -> error st (Printf.sprintf "invalid \\u escape %S" hex)
                in
                let code =
                  String.fold_left (fun acc c -> (acc * 16) + digit c) 0 hex
                in
                for _ = 1 to 4 do
                  advance st
                done;
                (* UTF-8 encode the code point (BMP only; surrogate
                   pairs are passed through as two encoded halves —
                   fine for the protocol's ASCII payloads). *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> error st (Printf.sprintf "invalid escape '\\%c'" c));
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+') ->
        advance st;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error st (Printf.sprintf "malformed number %S" s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> error st (Printf.sprintf "malformed number %S" s))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (key, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ()
          | Some '}' -> advance st
          | _ -> error st "expected ',' or '}' in object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements ()
          | Some ']' -> advance st
          | _ -> error st "expected ',' or ']' in array"
        in
        elements ();
        Arr (List.rev !items)
      end
  | Some 't' -> keyword st "true" (Bool true)
  | Some 'f' -> keyword st "false" (Bool false)
  | Some 'n' -> keyword st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character '%c'" c)

let parse src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | None -> ()
  | Some c -> error st (Printf.sprintf "trailing input starting at '%c'" c));
  v

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      Obs.Jsonl.add_escaped buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          print buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          Obs.Jsonl.add_escaped buf k;
          Buffer.add_string buf "\": ";
          print buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  print buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_str_opt = function Some (Str s) -> Some s | _ -> None

let to_int_opt = function
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let to_bool_opt = function Some (Bool b) -> Some b | _ -> None
