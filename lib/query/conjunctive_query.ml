(* Conjunctive queries, evaluated through compiled join plans — the
   consumers of chase-materialized instances (paper §1's motivating
   application). *)

open Chase_core
open Chase_engine

type t = { name : string; answer_vars : Term.t list; body : Atom.t list }

(* Nulls are runtime-only values: a query, like a TGD, never holds one. *)
let check_body body =
  if List.exists (fun a -> List.exists Term.is_null (Atom.terms a)) body then
    invalid_arg "Conjunctive_query: the body contains a null"

let make ?(name = "q") ~answer_vars ~body () =
  check_body body;
  let body_vars =
    List.fold_left (fun s a -> Term.Set.union (Atom.var_set a) s) Term.Set.empty body
  in
  List.iter
    (fun v ->
      match v with
      | Term.Var _ ->
          if not (Term.Set.mem v body_vars) then
            invalid_arg "Conjunctive_query.make: unsafe answer variable"
      | Term.Const _ | Term.Null _ ->
          invalid_arg "Conjunctive_query.make: answer terms must be variables")
    answer_vars;
  { name; answer_vars; body }

let name q = q.name
let answer_vars q = q.answer_vars
let body q = q.body

let boolean ?(name = "q") body =
  check_body body;
  { name; answer_vars = []; body }

(* Surface syntax piggybacking on the TGD parser:
   "r(X,Y), s(Y) -> ans(X)." — the head atom lists the answer variables. *)
let parse src =
  let tgd = Chase_parser.Parser.parse_tgd src in
  let head =
    match Tgd.head tgd with [ h ] -> h | _ -> invalid_arg "query: one head atom"
  in
  make ~name:(Atom.pred head) ~answer_vars:(Atom.terms head) ~body:(Tgd.body tgd) ()

(* The body is compiled as the body of a TGD whose head lists the
   answer variables, once per evaluation: [Plan.of_tgd]'s cache would
   keep every query a client ever sends. *)
let plan q =
  Plan.compile (Tgd.make ~name:q.name ~body:q.body ~head:[ Atom.make q.name q.answer_vars ] ())

(* All answer tuples over a source (with duplicates removed by a merge
   sort).  The empty conjunction holds once, with the empty tuple. *)
let answers_on q src =
  match q.body with
  | [] -> [ [] ]
  | _ ->
      let tuples = ref [] in
      Plan.iter_tuples (plan q) src q.answer_vars (fun t -> tuples := t :: !tuples);
      List.sort_uniq (List.compare Term.compare) !tuples

exception Found

let holds_on q src =
  match q.body with
  | [] -> true
  | _ -> (
      match Plan.iter_tuples (plan q) src [] (fun _ -> raise Found) with
      | () -> false
      | exception Found -> true)

let answers q instance = answers_on q (Plan.source_of_instance instance)
let holds q instance = holds_on q (Plan.source_of_instance instance)

let tuple_to_string tuple =
  "(" ^ String.concat ", " (List.map Term.to_string tuple) ^ ")"

let pp ppf q =
  Format.fprintf ppf "%s(%s) <- %s" q.name
    (String.concat "," (List.map Term.to_string q.answer_vars))
    (String.concat ", " (List.map Atom.to_string q.body))
