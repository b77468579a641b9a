(* Candidate triggers in id space (see candidate.mli).

   A run ranks its distinct TGDs by [Tgd.compare]; a candidate is the
   plan key tagged with its TGD's rank.  Sorting by rank, then by the
   body ids compared as terms, is [Trigger.compare] on the triggers the
   keys stand for, so a sorted batch enters a pool in the order the
   naive engine pushes its [Trigger.t] batch. *)

open Chase_core

type t = Plan.Key.t

let equal = Plan.Key.equal
let hash = Plan.Key.hash

module Tbl = Hashtbl.Make (Plan.Key)

type run = {
  src : Plan.csource;
  facts : Cinstance.t;  (* [src]'s store *)
  tgds : Tgd.t array;  (* by rank *)
  plans : Plan.t array;  (* by rank *)
  sc : Plan.scratch;
}

let create src plans =
  (* a stable sort keeps the first listed of equal TGDs first *)
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Tgd.compare a b) plans in
  let rec distinct = function
    | x :: y :: rest when Tgd.equal (fst x) (fst y) -> distinct (x :: rest)
    | x :: rest -> x :: distinct rest
    | [] -> []
  in
  let ranked = Array.of_list (distinct sorted) in
  {
    src;
    facts = Plan.cinstance src;
    tgds = Array.map fst ranked;
    plans = Array.map snd ranked;
    sc = Plan.new_scratch ();
  }

let source r = Plan.source_of_csource r.src
let tgd r c = r.tgds.(c.(0))
let plan r c = r.plans.(c.(0))

let compare r (a : t) (b : t) =
  let c = Int.compare a.(0) b.(0) in
  if c <> 0 then c
  else
    let n = Array.length a in
    let rec go i =
      if i >= n then 0
      else
        let x = a.(i) and y = b.(i) in
        if x = y then go (i + 1)
        else Term.compare (Cinstance.term_of_id r.facts x) (Cinstance.term_of_id r.facts y)
    in
    go 1

let each_plan r f = Array.iteri f r.plans

let iter_seed r f = each_plan r (fun tag p -> Plan.iter_keys p r.src r.sc ~tag f)

let iter_delta r atom f =
  match Plan.atom_ids r.src atom with
  | None -> ()
  | Some ids ->
      let pred = Atom.pred atom in
      each_plan r (fun tag p -> Plan.iter_delta_keys p r.src r.sc ~tag pred ids f)

let sorted r iter =
  let acc = ref [] in
  iter (fun c -> acc := c :: !acc);
  List.sort (compare r) !acc

let seed r = sorted r (iter_seed r)
let delta r atom = sorted r (iter_delta r atom)

let witness r atom =
  sorted r (fun f -> each_plan r (fun tag p -> Plan.iter_witness_keys p r.src r.sc ~tag atom f))

let trigger r c = Trigger.make (tgd r c) (Plan.hom_of_key (plan r c) r.src c)
let body r c = Plan.body_of_key (plan r c) r.src c
let instantiate ?gen r c = Plan.instantiate ?gen (plan r c) r.src c
let frontier_key r c = Plan.frontier_key (plan r c) c
let is_active r memo c = Plan.Head_memo.is_active memo (plan r c) r.src r.sc c

(* A scratch per call: the parallel scans test from many domains. *)
let head_satisfied r c = Plan.head_satisfied_key (plan r c) r.src (Plan.new_scratch ()) c

let rename rename (c : t) = Array.mapi (fun i id -> if i = 0 then id else rename id) c
