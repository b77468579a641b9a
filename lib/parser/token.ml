(* Tokens of the surface syntax.  The syntax is Prolog-flavored Datalog±:

     wa: r(X,Y) -> exists Z. r(Y,Z).
     r(a,b).

   Uppercase- or underscore-initial identifiers are variables, lowercase
   identifiers and numbers and quoted strings are constants (or predicate
   names in predicate position).  `%` and `//` start line comments. *)

type t =
  | Ident of string  (* lowercase identifier: predicate or constant *)
  | Uident of string  (* variable *)
  | Quoted of string  (* quoted constant *)
  | Number of string  (* integer constant *)
  | Lparen
  | Rparen
  | Comma
  | Arrow  (* -> *)
  | Dot
  | Colon
  | Exists  (* keyword: exists *)
  | Bot  (* keyword: false (constraint head, reserved) *)
  | Eof

let to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Uident s -> Printf.sprintf "variable %S" s
  | Quoted s -> Printf.sprintf "constant %S" s
  | Number s -> Printf.sprintf "number %s" s
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Arrow -> "'->'"
  | Dot -> "'.'"
  | Colon -> "':'"
  | Exists -> "'exists'"
  | Bot -> "'false'"
  | Eof -> "end of input"
