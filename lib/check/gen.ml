(* Case generation.  Profiles with [constants = true] substitute a
   random body variable of some rules by a constant — everywhere in the
   rule, so a full-variable guard still guards the remaining variables
   and single-body-atom rules stay linear; the database always draws
   from a small constant domain, so constant-bearing facts join against
   the rules' fixed positions. *)

open Chase_core

type case = {
  profile : Profile.t;
  seed : int;
  tgds : Tgd.t list;
  database : Instance.t;
}

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* Structurally unconstrained single-head TGDs: 1-3 body atoms over a
   shared variable pool (joins arise from reuse), heads mixing frontier
   variables with fresh existentials.  Single-head keeps the whole
   engine matrix applicable (ochase and the stop relation are defined
   for single-head sets). *)
let unrestricted_set (cfg : Chase_workload.Tgd_gen.config) =
  let rng = Random.State.make [| cfg.seed; 0x5eed |] in
  let schema = Chase_workload.Tgd_gen.schema_of cfg in
  let vars = List.init 4 (fun i -> Term.Var (Printf.sprintf "X%d" i)) in
  List.init cfg.tgds (fun idx ->
      let n_body = 1 + Random.State.int rng (max 1 cfg.max_body) in
      let body =
        List.init n_body (fun _ ->
            let p, ar = pick rng schema in
            Atom.make p (List.init ar (fun _ -> pick rng vars)))
      in
      let body_vars =
        Term.Set.elements
          (List.fold_left
             (fun acc a -> Term.Set.union acc (Atom.var_set a))
             Term.Set.empty body)
      in
      let hpred, har = pick rng schema in
      let head_args =
        List.init har (fun i ->
            if Random.State.bool rng then pick rng body_vars
            else Term.Var (Printf.sprintf "Z%d" i))
      in
      Tgd.make
        ~name:(Printf.sprintf "u%d" idx)
        ~body
        ~head:[ Atom.make hpred head_args ]
        ())

(* Substitute variable [v] by constant [c] throughout the rule.  Only
   universal (body) variables are substituted, so existentials keep
   producing nulls. *)
let ground_var v c tgd =
  let map_atom = Atom.map (fun t -> if Term.equal t v then c else t) in
  Tgd.make ~name:(Tgd.name tgd)
    ~body:(List.map map_atom (Tgd.body tgd))
    ~head:(List.map map_atom (Tgd.head tgd))
    ()

let inject_constants rng tgds =
  List.map
    (fun tgd ->
      match Term.Set.elements (Tgd.body_vars tgd) with
      | [] -> tgd
      | vars when Random.State.int rng 2 = 0 ->
          let v = pick rng vars in
          let c = Term.Const (Printf.sprintf "c%d" (Random.State.int rng 3)) in
          ground_var v c tgd
      | _ -> tgd)
    tgds

(* Each TGD with a nonempty frontier also records its frontier image
   under a predicate of its own (no body mentions it).  A trigger whose
   original head atoms are already present, because the database or
   another rule put them there, is then still active until the rule has
   fired for that frontier image, so a step can add an atom that was
   already there when it fired. *)
let multi_head_variant tgds =
  List.mapi
    (fun i tgd ->
      match Term.Set.elements (Tgd.frontier tgd) with
      | [] -> tgd
      | frontier ->
          Tgd.make ~name:(Tgd.name tgd) ~body:(Tgd.body tgd)
            ~head:(Tgd.head tgd @ [ Atom.make (Printf.sprintf "mh%d" i) frontier ])
            ())
    tgds

let generate ~profile ~seed =
  let rng = Random.State.make [| seed; 0xca5e |] in
  let cfg : Chase_workload.Tgd_gen.config =
    {
      predicates = 3 + Random.State.int rng 2;
      max_arity = 2 + Random.State.int rng 2;
      tgds = 2 + Random.State.int rng 3;
      max_body = 2;
      seed;
    }
  in
  let tgds =
    match profile.Profile.klass with
    | Profile.Linear -> Chase_workload.Tgd_gen.linear_set cfg
    | Profile.Guarded -> Chase_workload.Tgd_gen.guarded_set cfg
    | Profile.Sticky -> Chase_workload.Tgd_gen.sticky_set cfg
    | Profile.Weakly_acyclic -> Chase_workload.Tgd_gen.weakly_acyclic_set cfg
    | Profile.Unrestricted -> unrestricted_set cfg
  in
  let tgds = if profile.Profile.constants then inject_constants rng tgds else tgds in
  let schema =
    match tgds with
    | [] -> Schema.of_atoms [ Atom.make "p0" [ Term.Const "c0" ] ]
    | _ -> Schema.of_tgds tgds
  in
  let database =
    Chase_workload.Db_gen.random ~schema
      ~atoms:(3 + Random.State.int rng 5)
      ~domain:(if profile.Profile.constants then 3 else 4)
      ~seed:(seed + 1)
  in
  { profile; seed; tgds; database }
