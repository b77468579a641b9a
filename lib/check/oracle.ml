(* The differential oracle (see oracle.mli for the invariant catalogue).

   Structure: each section is wrapped in [guarded], so an engine that
   raises turns into an [engine-crash] discrepancy instead of killing
   the fuzzing loop; budget-truncated runs silently skip the checks
   that would need the missing tail. *)

open Chase_core
open Chase_engine

type discrepancy = { invariant : string; detail : string }

type budgets = {
  restricted_steps : int;
  oblivious_steps : int;
  ochase_nodes : int;
  search_depth : int;
  search_states : int;
}

let default_budgets =
  {
    restricted_steps = 300;
    oblivious_steps = 600;
    ochase_nodes = 400;
    search_depth = 48;
    search_states = 2_000;
  }

let pp_discrepancy ppf d = Format.fprintf ppf "[%s] %s" d.invariant d.detail

let fail invariant fmt = Format.kasprintf (fun detail -> [ { invariant; detail } ]) fmt

(* Run [f]; an exception becomes an [engine-crash] discrepancy tagged
   with the section that raised. *)
let guarded section f =
  match f () with
  | ds -> ds
  | exception e ->
      [
        {
          invariant = "engine-crash";
          detail = Printf.sprintf "%s raised %s" section (Printexc.to_string e);
        };
      ]

let strategies = [ Restricted.Fifo; Restricted.Lifo; Restricted.Random 7 ]

let status_name = function
  | Derivation.Terminated -> "terminated"
  | Derivation.Out_of_budget -> "out-of-budget"

(* Bit-identical derivations: status, step triggers, produced atoms,
   frontier terms, final instance. *)
let compare_derivations ~invariant ~what d1 d2 =
  if Derivation.status d1 <> Derivation.status d2 then
    fail invariant "%s: status %s vs %s" what
      (status_name (Derivation.status d1))
      (status_name (Derivation.status d2))
  else if Derivation.length d1 <> Derivation.length d2 then
    fail invariant "%s: %d vs %d steps" what (Derivation.length d1) (Derivation.length d2)
  else
    let diverging =
      List.find_opt
        (fun (s1, s2) ->
          not
            (Trigger.equal s1.Derivation.trigger s2.Derivation.trigger
            && List.equal Atom.equal s1.Derivation.produced s2.Derivation.produced
            && Term.Set.equal s1.Derivation.frontier s2.Derivation.frontier))
        (List.combine (Derivation.steps d1) (Derivation.steps d2))
    in
    match diverging with
    | Some (s1, s2) ->
        fail invariant "%s: step %d applies %s vs %s" what s1.Derivation.index
          (Trigger.to_string s1.Derivation.trigger)
          (Trigger.to_string s2.Derivation.trigger)
    | None ->
        if not (Instance.equal (Derivation.final d1) (Derivation.final d2)) then
          fail invariant "%s: equal steps but different final instances" what
        else []

(* Fact 3.5: the applied trigger must be active via the ≺s
   characterization on the instance it fired on. *)
let check_stop_relation ~what tgds d =
  if not (List.for_all Tgd.is_single_head tgds) then []
  else
    let steps = Derivation.steps d in
    let checked = ref 0 in
    List.concat_map
      (fun (k, step) ->
        if !checked >= 100 then []
        else begin
          incr checked;
          let before = Derivation.instance_at d k in
          if Stop.is_active_via_stop before step.Derivation.trigger then []
          else
            fail "stop-relation" "%s: step %d trigger %s is ≺s-stopped yet was applied" what
              step.Derivation.index
              (Trigger.to_string step.Derivation.trigger)
        end)
      (List.mapi (fun k s -> (k, s)) steps)

let naming_name = function `Fresh -> "fresh" | `Canonical -> "canonical"

(* Both null namings: [`Fresh] is the default of [chasectl chase] and of
   [Restricted.run], [`Canonical] the one the model, stop-relation and
   ochase checks read. *)
let check_restricted ~pool ~budgets tgds db =
  let max_steps = budgets.restricted_steps in
  List.concat_map
    (fun strategy ->
      let sname = Frontier.strategy_name strategy in
      guarded (Printf.sprintf "restricted(%s)" sname) @@ fun () ->
      let run ?pool naming backend =
        Restricted.run ~backend ~strategy ~max_steps ~naming ?pool tgds db
      in
      let d_naive = run `Canonical `Naive in
      let d_store = run `Canonical `Columnar in
      let agree_jobs naming d_naive d_store =
        let nname = naming_name naming in
        compare_derivations ~invariant:"backend-agreement"
          ~what:(Printf.sprintf "restricted/%s/%s naive-vs-columnar" sname nname)
          d_naive d_store
        @
        if not (Chase_exec.Pool.is_parallel pool) then []
        else
          compare_derivations ~invariant:"jobs-agreement"
            ~what:
              (Printf.sprintf "restricted/%s/%s/columnar jobs=1-vs-jobs=%d" sname nname
                 (Chase_exec.Pool.jobs pool))
            d_store (run ~pool naming `Columnar)
      in
      let agree =
        agree_jobs `Canonical d_naive d_store
        @ agree_jobs `Fresh (run `Fresh `Naive) (run `Fresh `Columnar)
      in
      let valid =
        List.concat_map
          (fun (bname, d) ->
            if Derivation.validate tgds d then []
            else fail "derivation-valid" "restricted/%s %s derivation fails validation" sname bname)
          [ ("naive", d_naive); ("columnar", d_store) ]
      in
      let model =
        if Derivation.status d_naive <> Derivation.Terminated then []
        else if Model_check.is_model ~database:db ~tgds (Derivation.final d_naive) then []
        else fail "model" "restricted/%s terminated on a non-model" sname
      in
      let stop = check_stop_relation ~what:(Printf.sprintf "restricted/%s" sname) tgds d_naive in
      agree @ valid @ model @ stop)
    strategies

let check_oblivious ~budgets tgds db =
  let max_steps = budgets.oblivious_steps in
  List.concat_map
    (fun (variant, vname) ->
      guarded (Printf.sprintf "oblivious(%s)" vname) @@ fun () ->
      let r1 = Oblivious.run ~backend:`Naive ~variant ~max_steps tgds db in
      let r2 = Oblivious.run ~backend:`Columnar ~variant ~max_steps tgds db in
      if
        not
          (Instance.equal r1.Oblivious.instance r2.Oblivious.instance
          && r1.Oblivious.applications = r2.Oblivious.applications
          && r1.Oblivious.saturated = r2.Oblivious.saturated)
      then
        fail "backend-agreement" "%s: naive (%d apps, saturated %b) vs columnar (%d apps, %b)"
          vname r1.Oblivious.applications r1.Oblivious.saturated r2.Oblivious.applications
          r2.Oblivious.saturated
      else [])
    [ (Oblivious.Oblivious, "oblivious"); (Oblivious.Semi_oblivious, "semi-oblivious") ]

(* When both chases complete, restricted and oblivious results are both
   universal models of (D, T), hence hom-equivalent. *)
let check_universality ~budgets tgds db =
  guarded "universality" @@ fun () ->
  let obl = Oblivious.run ~variant:Oblivious.Oblivious ~max_steps:budgets.oblivious_steps tgds db in
  if not obl.Oblivious.saturated then []
  else
    let d =
      Restricted.run ~strategy:Restricted.Fifo ~max_steps:budgets.restricted_steps
        ~naming:`Canonical tgds db
    in
    if Derivation.status d <> Derivation.Terminated then []
    else
      let final = Derivation.final d in
      let into =
        if Model_check.maps_into obl.Oblivious.instance ~into:final then []
        else fail "oblivious-universal" "oblivious result does not map into the restricted model"
      in
      let back =
        if Model_check.maps_into final ~into:obl.Oblivious.instance then []
        else fail "oblivious-universal" "restricted model does not map into the oblivious result"
      in
      into @ back

(* Def 3.3 vs §3.1: a complete ochase's atom *set* is the saturated
   oblivious chase (canonical nulls make this literal set equality). *)
let check_ochase ~budgets tgds db =
  if not (List.for_all Tgd.is_single_head tgds) then []
  else
    guarded "ochase" @@ fun () ->
    let g = Real_oblivious.build ~max_nodes:budgets.ochase_nodes ~max_depth:64 tgds db in
    if not (Real_oblivious.complete g) then []
    else
      let obl =
        Oblivious.run ~variant:Oblivious.Oblivious ~max_steps:budgets.oblivious_steps tgds db
      in
      if not obl.Oblivious.saturated then []
      else if Instance.equal (Real_oblivious.atom_set g) obl.Oblivious.instance then []
      else
        fail "ochase-atoms" "ochase atom set (%d atoms) ≠ oblivious chase (%d atoms)"
          (Instance.cardinal (Real_oblivious.atom_set g))
          (Instance.cardinal obl.Oblivious.instance)

(* Incremental maintenance (lib/engine/incremental.ml): replay the
   database as a deterministic assert/chase interleaving — k batches,
   a chase after each — then change the saturated session twice more,
   each change followed by a chase:
   - the base facts of later batches that a chase step had already
     derived when they were asserted (kept by the step that derives
     them), then those facts again;
   - every other batch (the odd ones);
   - the rest, which must leave nothing (an atom whose derivations a
     retraction moved to a surviving step must go with that step);
   on a second session, the same asserts and chases with no snapshot
   taken in between, then the odd batches retracted, so the retraction
   finds every atom still unfolded in the store; and, on a third
   session loaded with the whole database and stopped by a step budget
   halfway, the even-indexed facts.  After every chase the session must
   be a model of its current base, hom-equivalent to the from-scratch
   chase of that base (the unfolded session is compared only at the
   end).  A scenario whose chase, or whose from-scratch counterpart,
   runs out of budget is skipped (not failed).  Batches split the
   canonical atom order by index modulo k, so every interleaving is
   reproducible from the case alone.  The scenarios run on the drawn
   set and on its multi-head variant ([Gen.multi_head_variant]), whose
   steps can re-derive atoms that were present when they fired. *)
let incremental_scenarios ~pool ~budgets ~set tgds db =
  guarded "incremental" @@ fun () ->
  let max_steps = budgets.restricted_steps in
  let scratches = ref [] in
  let scratch base =
    match List.find_opt (fun (b, _) -> Instance.equal b base) !scratches with
    | Some (_, d) -> d
    | None ->
        let d =
          Restricted.run ~strategy:Restricted.Fifo ~max_steps ~naming:`Canonical ~pool tgds base
        in
        let d = if Derivation.status d = Derivation.Terminated then Some d else None in
        scratches := (base, d) :: !scratches;
        d
  in
  let settle s = (Incremental.chase ~epool:pool ~max_steps s).Incremental.saturated in
  (* the session, just chased, against the from-scratch chase of its base *)
  let agree ~what s saturated =
    let base = Incremental.base s in
    match scratch base with
    | Some d when saturated ->
        let final = Incremental.instance s in
        if not (Model_check.is_model ~database:base ~tgds final) then
          fail "incremental-equivalence" "%s: session result is not a model of its base" what
        else if not (Model_check.hom_equivalent final (Derivation.final d)) then
          fail "incremental-equivalence"
            "%s: session result (%d atoms) is not hom-equivalent to the from-scratch chase (%d \
             atoms)"
            what (Instance.cardinal final)
            (Instance.cardinal (Derivation.final d))
        else []
    | _ -> []
  in
  match scratch db with
  | None -> []
  | Some whole ->
      let atoms = Instance.to_list db in
      let split k = List.init k (fun i -> List.filteri (fun j _ -> j mod k = i) atoms) in
      let interleaved k =
        let what step = Printf.sprintf "%sinterleaving k=%d, %s" set k step in
        let batches = split k in
        let s = Incremental.create ~strategy:Restricted.Fifo tgds Instance.empty in
        let derived = ref [] in
        let saturated =
          List.for_all
            (fun batch ->
              let before = Incremental.instance s in
              derived := List.filter (fun a -> Instance.mem a before) batch @ !derived;
              ignore (Incremental.assert_atoms s batch);
              settle s)
            batches
        in
        if not saturated then []
        else
          let step what' change =
            change s;
            agree ~what:(what what') s (settle s)
          in
          let odd = List.concat (List.filteri (fun i _ -> i mod 2 = 1) batches) in
          let even = List.concat (List.filteri (fun i _ -> i mod 2 = 0) batches) in
          let first = agree ~what:(what "asserted") s true in
          let derived_steps =
            if !derived = [] then []
            else
              step "retracted derived base facts" (fun s ->
                  ignore (Incremental.retract_atoms s !derived))
              @ step "re-asserted them" (fun s -> ignore (Incremental.assert_atoms s !derived))
          in
          first @ derived_steps
          @ step "retracted the odd batches" (fun s -> ignore (Incremental.retract_atoms s odd))
          @ step "retracted the rest" (fun s -> ignore (Incremental.retract_atoms s even))
      in
      let unfolded k =
        let batches = split k in
        let s = Incremental.create ~strategy:Restricted.Fifo tgds Instance.empty in
        if
          List.for_all
            (fun batch ->
              ignore (Incremental.assert_atoms s batch);
              settle s)
            batches
        then begin
          ignore
            (Incremental.retract_atoms s
               (List.concat (List.filteri (fun i _ -> i mod 2 = 1) batches)));
          agree
            ~what:
              (Printf.sprintf "%sunfolded interleaving k=%d, retracted the odd batches" set k)
            s (settle s)
        end
        else []
      in
      let stopped () =
        let s = Incremental.create ~strategy:Restricted.Fifo tgds db in
        let o = Incremental.chase ~epool:pool ~max_steps:(max 1 (Derivation.length whole / 2)) s in
        if o.Incremental.saturated then []
        else begin
          ignore (Incremental.retract_atoms s (List.filteri (fun j _ -> j mod 2 = 0) atoms));
          agree
            ~what:(Printf.sprintf "%sbudget-stopped, retracted the even facts" set)
            s (settle s)
        end
      in
      (* a fresh session with budget [k] is [Restricted.run ~max_steps:k],
         literally: same instance, same steps, saturated iff terminated *)
      let budgeted k =
        let d =
          Restricted.run ~strategy:Restricted.Fifo ~max_steps:k ~naming:`Canonical ~pool tgds db
        in
        let s = Incremental.create ~strategy:Restricted.Fifo tgds db in
        let o = Incremental.chase ~epool:pool ~max_steps:k s in
        let what = Printf.sprintf "%sfresh session with budget %d" set k in
        if not (Instance.equal (Incremental.instance s) (Derivation.final d)) then
          fail "incremental-equivalence" "%s: instance differs from Restricted.run's" what
        else if o.Incremental.steps <> Derivation.length d then
          fail "incremental-equivalence" "%s: %d steps vs Restricted.run's %d" what
            o.Incremental.steps (Derivation.length d)
        else if o.Incremental.saturated <> Derivation.terminated d then
          fail "incremental-equivalence" "%s: saturated %b vs Restricted.run %s" what
            o.Incremental.saturated
            (status_name (Derivation.status d))
        else []
      in
      let full = Derivation.length whole in
      interleaved 2 @ interleaved 3 @ unfolded 3 @ stopped () @ budgeted (full / 2) @ budgeted full

let check_incremental ~pool ~budgets tgds db =
  incremental_scenarios ~pool ~budgets ~set:"" tgds db
  @ incremental_scenarios ~pool ~budgets ~set:"multi-head set, "
      (Gen.multi_head_variant tgds) db

let check_decider ~pool ~budgets ?(portfolio = false) tgds db =
  match Chase_termination.Decider.decide ~pool tgds with
  | exception e -> fail "decider-crash" "Decider.decide raised %s" (Printexc.to_string e)
  | report ->
      let open Chase_termination.Decider in
      let wa = report.classification.Chase_classes.Classification.weakly_acyclic in
      (* A [Terminating] answer is ∀∀: no database — in particular not
         this one — may admit divergence evidence.  The depth budget
         sits far beyond the observed terminated lengths, so a hit is a
         genuine contradiction candidate, not noise.  Applied to the
         fixed report and, in portfolio mode, to the portfolio's too. *)
      let exams mode r =
        let contradiction =
          match (wa, r.answer) with
          | true, Non_terminating ->
              fail "decider-wa" "weakly acyclic set judged Non_terminating via %s (%s)"
                (method_name r.method_used) mode
          | _ -> []
        in
        match r.answer with
        | Terminating when List.length tgds <= 4 && Instance.cardinal db <= 10 ->
            guarded "derivation-search" (fun () ->
                match
                  Chase_termination.Derivation_search.divergence_evidence
                    ~max_depth:budgets.search_depth ~max_states:budgets.search_states tgds db
                with
                | Some d ->
                    fail "decider-termination"
                      "decider (%s) says Terminating but a valid derivation exceeds depth %d \
                       (%d steps)"
                      mode budgets.search_depth (Derivation.length d)
                | None -> [])
            @ contradiction
        | _ -> contradiction
      in
      let answer_name = function
        | Terminating -> "terminating"
        | Non_terminating -> "non-terminating"
        | Unknown -> "unknown"
      in
      let portfolio_exam =
        if not portfolio then []
        else
          guarded "decider-portfolio" @@ fun () ->
          match decide_portfolio ~prune:true ~pool tgds with
          | exception e ->
              fail "decider-crash" "Decider.decide_portfolio raised %s" (Printexc.to_string e)
          | p ->
              (* The portfolio races a superset of the fixed dispatch's
                 procedures under the same budgets, so a conclusive
                 fixed answer must survive: same answer, or a conclusive
                 portfolio answer where the fixed one was Unknown. *)
              let agreement =
                match (report.answer, p.answer) with
                | Terminating, Non_terminating | Non_terminating, Terminating ->
                    fail "decider-portfolio" "fixed %s (%s) vs portfolio %s (%s) disagree"
                      (answer_name report.answer)
                      (method_name report.method_used)
                      (answer_name p.answer) (method_name p.method_used)
                | (Terminating | Non_terminating), Unknown ->
                    fail "decider-portfolio"
                      "fixed dispatch conclusive (%s via %s) but the portfolio is inconclusive"
                      (answer_name report.answer)
                      (method_name report.method_used)
                | _ -> []
              in
              agreement @ exams "portfolio" p
      in
      (* Subsumption pruning must never change the sticky verdict
         (DESIGN.md §10); compare the conclusive categories directly on
         sets the sticky procedure covers. *)
      let prune_exam =
        if not portfolio then []
        else
          let c = report.classification in
          if
            Tgd.constant_free_set tgds
            && c.Chase_classes.Classification.single_head
            && c.Chase_classes.Classification.sticky
          then
            guarded "sticky-prune" @@ fun () ->
            let verdict_name = function
              | Chase_termination.Sticky_decider.All_terminating -> "all-terminating"
              | Chase_termination.Sticky_decider.Non_terminating _ -> "non-terminating"
              | Chase_termination.Sticky_decider.Inconclusive _ -> "inconclusive"
            in
            let exact = Chase_termination.Sticky_decider.decide ~pool tgds in
            let pruned = Chase_termination.Sticky_decider.decide ~pool ~prune:true tgds in
            if String.equal (verdict_name exact) (verdict_name pruned) then []
            else
              fail "sticky-prune" "subsumption pruning changed the sticky verdict: %s vs %s"
                (verdict_name exact) (verdict_name pruned)
          else []
      in
      exams "fixed" report @ portfolio_exam @ prune_exam

let check ?(pool = Chase_exec.Pool.inline) ?(budgets = default_budgets) ?(portfolio = false)
    tgds db =
  check_restricted ~pool ~budgets tgds db
  @ check_oblivious ~budgets tgds db
  @ check_universality ~budgets tgds db
  @ check_ochase ~budgets tgds db
  @ check_incremental ~pool ~budgets tgds db
  @ check_decider ~pool ~budgets ~portfolio tgds db
