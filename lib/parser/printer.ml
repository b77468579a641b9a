(* Pretty-printer emitting the surface syntax back; [Parser.parse_program]
   round-trips its output.  Variable names are adjusted to the concrete
   syntax's conventions (uppercase-initial) when needed. *)

open Chase_core

let is_var_name s = String.length s > 0 && (match s.[0] with 'A' .. 'Z' | '_' -> true | _ -> false)

let is_word_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* A word the lexer reads as an identifier: lowercase-initial, and not
   one of the keywords. *)
let is_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all is_word_char s && s <> "exists" && s <> "false"

let is_number s = String.length s > 0 && String.for_all (function '0' .. '9' -> true | _ -> false) s
let is_bare_const s = is_ident s || is_number s

(* The lexer reads a quoted constant's bytes raw, line breaks included,
   and a doubled quote as one quote. *)
let quote s = "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""

(* A renaming of the TGD's variables into concrete-syntax variable names,
   injective by construction. *)
let var_renaming tgd =
  let used = Hashtbl.create 16 in
  let map = Hashtbl.create 16 in
  Term.Set.iter
    (fun x ->
      match x with
      | Term.Var v ->
          let base = if is_var_name v then v else "V" ^ v in
          let name =
            if not (Hashtbl.mem used base) then base
            else
              let rec fresh i =
                let cand = Printf.sprintf "%s_%d" base i in
                if Hashtbl.mem used cand then fresh (i + 1) else cand
              in
              fresh 1
          in
          Hashtbl.add used name ();
          Hashtbl.add map v name
      | Term.Const _ | Term.Null _ -> ())
    (Tgd.all_vars tgd);
  fun v -> match Hashtbl.find_opt map v with Some n -> n | None -> v

let print_term rename = function
  | Term.Var v -> rename v
  | Term.Const c -> if is_bare_const c then c else quote c
  | Term.Null n -> quote ("_:" ^ n)

(* No quoting makes a predicate of a word the lexer does not read as an
   identifier, so such a program cannot be written back. *)
let print_atom rename a =
  let p = Atom.pred a in
  if not (is_ident p) then invalid_arg (Printf.sprintf "Printer: predicate %S is not an identifier" p);
  Printf.sprintf "%s(%s)" p
    (String.concat "," (List.map (print_term rename) (Atom.args a)))

let print_fact a = print_atom (fun v -> v) a ^ "."

let print_tgd tgd =
  let rename = var_renaming tgd in
  let body = String.concat ", " (List.map (print_atom rename) (Tgd.body tgd)) in
  let head = String.concat ", " (List.map (print_atom rename) (Tgd.head tgd)) in
  let ex = Tgd.existential_vars tgd in
  let exists =
    if Term.Set.is_empty ex then ""
    else
      "exists "
      ^ String.concat ","
          (List.filter_map
             (function Term.Var v -> Some (rename v) | _ -> None)
             (Term.Set.elements ex))
      ^ ". "
  in
  let name = Tgd.name tgd in
  let prefix =
    if is_ident name || (is_var_name name && String.for_all is_word_char name) then name ^ ": "
    else ""
  in
  Printf.sprintf "%s%s -> %s%s." prefix body exists head

let print_program p =
  let buf = Buffer.create 256 in
  List.iter
    (fun t ->
      Buffer.add_string buf (print_tgd t);
      Buffer.add_char buf '\n')
    (Program.tgds p);
  Instance.iter
    (fun a ->
      Buffer.add_string buf (print_fact a);
      Buffer.add_char buf '\n')
    (Program.database p);
  Buffer.contents buf
