(* Compiled join plans (see plan.mli for the design rationale).

   A TGD's variables are interned into integer slots; matching binds
   into a scratch [Term.t option array] with an explicit undo trail, so
   the innermost loop performs no map operations at all.  The body atom
   order and the per-atom index candidates are chosen once, at compile
   time, by a greedy most-constrained-first heuristic; at runtime only
   the cheapest of the statically-legal indexes is probed. *)

open Chase_core

type pat = Fixed of Term.t | S of int  (* slot *)

type step = {
  pred : string;
  arity : int;
  pats : pat array;
  bound : (int * pat) array;
      (* positions statically determined before this step is matched:
         fixed terms, and slots bound by earlier atoms of the plan.
         Used only to select the candidate index. *)
}

(* A seed step (matched directly against a delta atom) and the compiled
   suffix for the remaining body atoms.  The keys name [seed_alone]
   ([[|seed|]]) and [suffix] in a columnar source's resolution cache. *)
type delta_step = {
  seed : step;
  seed_alone : step array;
  seed_key : int;
  suffix : step array;
  suffix_key : int;
}

type t = {
  tgd : Tgd.t;
  nslots : int;
  var_of_slot : Term.t array;
  key_slots : int array;
      (* slots of the body variables in variable order ([Term.compare]):
         cell [i + 1] of a candidate key holds the id bound to slot
         [key_slots.(i)], so comparing keys cell by cell (as terms)
         follows [Substitution.compare] *)
  cell_of_slot : int array;  (* inverse of [key_slots]; -1 off the body *)
  body_tmpl : (string * pat array) array;  (* body atoms in TGD order *)
  body_order : step array;  (* full enumeration *)
  body_key : int;
  delta : delta_step array;  (* per body atom index *)
  head_steps : step array;  (* head atoms, frontier slots pre-bound *)
  head_key : int;
  witness : unit -> (step * step array) array;
      (* per head atom: the atom's pattern (matched against a former
         witness atom) and the body order compiled with that atom's
         frontier slots pre-bound.  Compiled on first use, since only
         a retraction needs it; two domains racing on it compile it
         twice, harmlessly. *)
  frontier_vars : Term.t array;  (* sorted; aligned with frontier_slots *)
  frontier_slots : int array;
  frontier_cells : int array;  (* key cell of each frontier slot *)
  head_tmpl : (string * pat array) array;  (* head atoms in TGD order *)
  ex_slots : int array;  (* existential slots in variable order *)
  null_key : (string * string array) option Atomic.t;
      (* the fixed parts of the canonical null digest key: ["name|text|"]
         and ["?X="] per key slot; built on first use, since query plans
         never name a null *)
}

let tgd p = p.tgd

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Process-wide, so a key names one step array of one plan in every
   source's resolution cache. *)
let next_key = Atomic.make 0
let fresh_key () = Atomic.fetch_and_add next_key 1

let compile tgd =
  Obs.incr "plan.compile";
  let body = Array.of_list (Tgd.body tgd) in
  let head = Array.of_list (Tgd.head tgd) in
  (* Intern every variable of the TGD into a slot. *)
  let slot_of_var : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let vars = ref [] in
  let nslots = ref 0 in
  let slot v =
    match Hashtbl.find_opt slot_of_var v with
    | Some s -> s
    | None ->
        let s = !nslots in
        Hashtbl.add slot_of_var v s;
        vars := Term.Var v :: !vars;
        incr nslots;
        s
  in
  let pat_of_term = function Term.Var v -> S (slot v) | t -> Fixed t in
  let pats_of_atom a = Array.map pat_of_term (Atom.args_a a) in
  let body_pats = Array.map pats_of_atom body in
  let head_pats = Array.map pats_of_atom head in
  let var_of_slot = Array.of_list (List.rev !vars) in
  (* A step for atom [a], given the set of slots bound beforehand. *)
  let make_step a pats bound_slots =
    let bound = ref [] in
    Array.iteri
      (fun i p ->
        match p with
        | Fixed _ -> bound := (i, p) :: !bound
        | S s -> if bound_slots.(s) then bound := (i, p) :: !bound)
      pats;
    { pred = Atom.pred a; arity = Atom.arity a; pats; bound = Array.of_list (List.rev !bound) }
  in
  (* Constrained-position count of an atom under the current bound set:
     fixed terms, already-bound slots, and within-atom repeats all prune
     candidates, so they all count toward selectivity. *)
  let score pats bound_slots =
    let seen = Hashtbl.create 8 in
    let c = ref 0 in
    Array.iter
      (fun p ->
        match p with
        | Fixed _ -> incr c
        | S s ->
            if bound_slots.(s) || Hashtbl.mem seen s then incr c else Hashtbl.add seen s ())
      pats;
    !c
  in
  let mark_bound bound_slots pats =
    Array.iter (function S s -> bound_slots.(s) <- true | Fixed _ -> ()) pats
  in
  (* Greedy order over the given atom indices, starting from a bound-slot
     set; ties break toward the original body order for determinism. *)
  let greedy_order indices initially_bound =
    let bound_slots = Array.make (max 1 !nslots) false in
    Array.iter (fun s -> bound_slots.(s) <- true) initially_bound;
    let remaining = ref indices in
    let order = ref [] in
    while !remaining <> [] do
      let best =
        List.fold_left
          (fun best i ->
            let sc = score body_pats.(i) bound_slots in
            match best with Some (_, bsc) when bsc >= sc -> best | _ -> Some (i, sc))
          None !remaining
        |> Option.get |> fst
      in
      remaining := List.filter (fun i -> i <> best) !remaining;
      order := (make_step body.(best) body_pats.(best) bound_slots, best) :: !order;
      mark_bound bound_slots body_pats.(best)
    done;
    List.rev !order
  in
  let all_indices = List.init (Array.length body) Fun.id in
  let body_order = Array.of_list (List.map fst (greedy_order all_indices [||])) in
  let slots_of_pats pats =
    Array.to_list pats |> List.filter_map (function S s -> Some s | Fixed _ -> None)
  in
  let delta =
    Array.init (Array.length body) (fun i ->
        let no_bound = Array.make (max 1 !nslots) false in
        let seed = make_step body.(i) body_pats.(i) no_bound in
        let rest = List.filter (fun j -> j <> i) all_indices in
        let suffix =
          greedy_order rest (Array.of_list (slots_of_pats body_pats.(i))) |> List.map fst
        in
        {
          seed;
          seed_alone = [| seed |];
          seed_key = fresh_key ();
          suffix = Array.of_list suffix;
          suffix_key = fresh_key ();
        })
  in
  let frontier_vars = Array.of_list (Term.Set.elements (Tgd.frontier tgd)) in
  let frontier_slots =
    Array.map
      (function Term.Var v -> Hashtbl.find slot_of_var v | _ -> assert false)
      frontier_vars
  in
  let head_steps =
    (* greedy over head atoms with the frontier pre-bound *)
    let bound_slots = Array.make (max 1 !nslots) false in
    Array.iter (fun s -> bound_slots.(s) <- true) frontier_slots;
    let remaining = ref (List.init (Array.length head) Fun.id) in
    let order = ref [] in
    while !remaining <> [] do
      let best =
        List.fold_left
          (fun best i ->
            let sc = score head_pats.(i) bound_slots in
            match best with Some (_, bsc) when bsc >= sc -> best | _ -> Some (i, sc))
          None !remaining
        |> Option.get |> fst
      in
      remaining := List.filter (fun i -> i <> best) !remaining;
      order := make_step head.(best) head_pats.(best) bound_slots :: !order;
      mark_bound bound_slots head_pats.(best)
    done;
    Array.of_list (List.rev !order)
  in
  let frontier_set = Array.to_list frontier_slots in
  let witness =
    let compiled = Atomic.make None in
    fun () ->
      match Atomic.get compiled with
      | Some w -> w
      | None ->
          let w =
            Array.init (Array.length head) (fun i ->
                let no_bound = Array.make (max 1 !nslots) false in
                let pattern = make_step head.(i) head_pats.(i) no_bound in
                let pre =
                  List.filter (fun s -> List.mem s frontier_set) (slots_of_pats head_pats.(i))
                in
                (pattern, Array.of_list (List.map fst (greedy_order all_indices (Array.of_list pre)))))
          in
          Atomic.set compiled (Some w);
          w
  in
  let key_slots =
    let seen = Hashtbl.create 16 in
    Array.iter (fun pats -> List.iter (fun s -> Hashtbl.replace seen s ()) (slots_of_pats pats)) body_pats;
    Hashtbl.fold (fun s () acc -> s :: acc) seen []
    |> List.sort (fun a b -> Term.compare var_of_slot.(a) var_of_slot.(b))
    |> Array.of_list
  in
  let cell_of_slot = Array.make (max 1 !nslots) (-1) in
  Array.iteri (fun i s -> cell_of_slot.(s) <- i + 1) key_slots;
  let ex_slots =
    Array.to_list head_pats
    |> List.concat_map slots_of_pats
    |> List.filter (fun s -> cell_of_slot.(s) < 0)
    |> List.sort_uniq (fun a b -> Term.compare var_of_slot.(a) var_of_slot.(b))
    |> Array.of_list
  in
  let tmpl atoms pats = Array.mapi (fun i a -> (Atom.pred a, pats.(i))) atoms in
  {
    tgd;
    nslots = !nslots;
    var_of_slot;
    key_slots;
    cell_of_slot;
    body_tmpl = tmpl body body_pats;
    body_order;
    body_key = fresh_key ();
    delta;
    head_steps;
    head_key = fresh_key ();
    witness;
    frontier_vars;
    frontier_slots;
    frontier_cells = Array.map (fun s -> cell_of_slot.(s)) frontier_slots;
    head_tmpl = tmpl head head_pats;
    ex_slots;
    null_key = Atomic.make None;
  }

module TgdMap = Map.Make (Tgd)

let cache = ref TgdMap.empty
let cache_mutex = Mutex.create ()

(* The read path is lock-free (a racy read of the immutable map at worst
   misses a fresh entry and falls through to the locked path); compile
   and insert are serialized so concurrent domains can never mint two
   plans — and two [id]s, the memo key — for one TGD. *)
let of_tgd tgd =
  match TgdMap.find_opt tgd !cache with
  | Some p -> p
  | None ->
      Mutex.lock cache_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock cache_mutex)
        (fun () ->
          match TgdMap.find_opt tgd !cache with
          | Some p -> p
          | None ->
              let p = compile tgd in
              cache := TgdMap.add tgd p !cache;
              p)

let cached () = TgdMap.cardinal !cache

let scoped f =
  let saved = !cache in
  Fun.protect ~finally:(fun () -> cache := saved) f

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

(* Match [atom] against the step's pattern, binding fresh slots into
   [env] and recording them on [trail] from cursor [tcur].  Returns the
   new trail cursor, or -1 with [env] restored. *)
let try_match st (env : Term.t option array) (trail : int array) tcur atom =
  if Atom.arity atom <> st.arity then -1
  else begin
    let cur = ref tcur in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < st.arity do
      let v = Atom.arg atom !i in
      (match st.pats.(!i) with
      | Fixed t -> if not (Term.equal t v) then ok := false
      | S s -> (
          match env.(s) with
          | Some u -> if not (Term.equal u v) then ok := false
          | None ->
              env.(s) <- Some v;
              trail.(!cur) <- s;
              incr cur));
      incr i
    done;
    if !ok then !cur
    else begin
      for j = tcur to !cur - 1 do
        env.(trail.(j)) <- None
      done;
      -1
    end
  end

(* [min |s| limit]: [Atom.Set.cardinal] walks the whole tree, which on a
   hub slice costs more than the probe it chooses. *)
let cardinal_upto limit s =
  let rec go n seq =
    if n >= limit then n else match seq () with Seq.Nil -> n | Seq.Cons (_, rest) -> go (n + 1) rest
  in
  go 0 (Atom.Set.to_seq s)

(* Candidate atoms for a step: cheapest statically-bound index, else a
   predicate scan.  An index probe of cardinality 0 short-circuits.  A
   posting is counted only up to the best count so far, which picks the
   same posting as full counts would. *)
let iter_candidates inst st env f =
  if Array.length st.bound = 0 then begin
    Obs.incr "plan.probe.scan";
    Atom.Set.iter f (Instance.with_pred_set inst st.pred)
  end
  else begin
    let best = ref Atom.Set.empty and best_c = ref max_int in
    Array.iter
      (fun (pos, p) ->
        let v = match p with Fixed t -> t | S s -> Option.get env.(s) in
        let atoms = Instance.with_pred_pos_term inst st.pred pos v in
        let c = cardinal_upto !best_c atoms in
        if c < !best_c then begin
          best_c := c;
          best := atoms
        end)
      st.bound;
    if !best_c > 0 then begin
      Obs.incr "plan.probe.index";
      Atom.Set.iter f !best
    end
    else Obs.incr "plan.probe.empty"
  end

let run_steps inst steps env trail start_cursor emit =
  let n = Array.length steps in
  let rec go k tcur =
    if k >= n then emit ()
    else
      let st = steps.(k) in
      iter_candidates inst st env (fun atom ->
          let cur' = try_match st env trail tcur atom in
          if cur' >= 0 then begin
            go (k + 1) cur';
            for j = tcur to cur' - 1 do
              env.(trail.(j)) <- None
            done
          end)
  in
  go 0 start_cursor

let sub_of_env p env =
  Array.fold_left
    (fun s slot ->
      match env.(slot) with
      | Some v -> Substitution.bind p.var_of_slot.(slot) v s
      | None -> s)
    Substitution.empty p.key_slots

let scratch p = (Array.make (max 1 p.nslots) None, Array.make (max 1 p.nslots) 0)

(* ------------------------------------------------------------------ *)
(* Columnar runtime                                                    *)
(* ------------------------------------------------------------------ *)

(* The same compiled steps, run against {!Chase_core.Cinstance} columns:
   the scratch env holds dense term ids (-1 = unbound) and the innermost
   loop compares ints, never [Term.t] structure.  Every lookup goes
   through the read-only [Cinstance.find_id] — a term the store never
   interned occurs in no row, so it simply kills the match.  Interning
   on the read path is forbidden: the parallel activity scan probes a
   frozen store from many domains. *)

(* A step's patterns resolved against a concrete store: [>= 0] a fixed
   term id, [<= -2] the slot [-p - 2], [-1] a fixed term the store never
   interned (the step can match nothing at all). *)
let ipats_of ci st =
  Array.map
    (function
      | S s -> -s - 2
      | Fixed t -> ( match Cinstance.find_id ci t with -1 -> -1 | id -> id))
    st.pats

(* A resolved step: its relation and int-encoded pats.  Both stay valid
   until the store's next [Cinstance.remove]; the columns are read from
   the relation per enumeration, since an add may reallocate them. *)
type cstep = { cst : step; crel : Cinstance.Rel.t; ipats : int array }

exception Dead_step

(* [None] when some step can match nothing — missing relation or an
   un-interned fixed term — making the whole conjunction empty. *)
let resolve_steps ci steps =
  match
    Array.map
      (fun st ->
        match Cinstance.rel ci st.pred st.arity with
        | None -> raise Dead_step
        | Some crel ->
            let ipats = ipats_of ci st in
            if Array.exists (fun p -> p = -1) ipats then raise Dead_step;
            { cst = st; crel; ipats })
      steps
  with
  | csteps -> Some csteps
  | exception Dead_step -> None

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

module IntMap = Map.Make (Int)

(* The step arrays a columnar source has resolved, by key, valid while
   the store's [Cinstance.removals] reads [gen].  Only live resolutions
   are kept: a missing relation or constant may appear with a later
   add, a present one lasts until a removal.  The cache is an immutable
   map behind an atomic, because the parallel activity scan resolves
   from many domains; two domains racing to extend it may drop one
   entry, which is resolved again on its next use.  A source that
   outlives many plans (a serve session) starts over past
   [max_resolved] entries. *)
type resolved = { gen : int; size : int; steps : cstep array IntMap.t }

let max_resolved = 4096

type csource = { ci : Cinstance.t; resolved : resolved Atomic.t }

(* A persistent source presents atoms as [Atom.t] and is matched
   structurally; the columnar source is probed through id-compare
   loops of its own, sharing only the compiled plans. *)
type source = Persistent of Instance.t | Columnar of csource

let source_of_instance i = Persistent i

let csource ci =
  { ci; resolved = Atomic.make { gen = Cinstance.removals ci; size = 0; steps = IntMap.empty } }

let source_of_csource cs = Columnar cs
let source_of_cinstance ci = Columnar (csource ci)
let cinstance cs = cs.ci

(* [resolve_steps], cached in the source under [key]. *)
let resolve cs key steps =
  let gen = Cinstance.removals cs.ci in
  let r = Atomic.get cs.resolved in
  match if r.gen = gen then IntMap.find_opt key r.steps else None with
  | Some _ as hit -> hit
  | None -> (
      match resolve_steps cs.ci steps with
      | None -> None
      | Some csteps as res ->
          let r =
            if r.gen = gen && r.size < max_resolved then r
            else { gen; size = 0; steps = IntMap.empty }
          in
          Atomic.set cs.resolved
            { gen; size = r.size + 1; steps = IntMap.add key csteps r.steps };
          res)

(* Row-matching twin of [try_match]: cell [i] of [row] against
   [ipats.(i)]. *)
let try_match_row cols ipats arity (env : int array) (trail : int array) tcur row =
  let cur = ref tcur in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < arity do
    let p = ipats.(!i) in
    let v = cols.(!i).(row) in
    if p >= 0 then begin if p <> v then ok := false end
    else begin
      let s = -p - 2 in
      let u = env.(s) in
      if u >= 0 then begin if u <> v then ok := false end
      else begin
        env.(s) <- v;
        trail.(!cur) <- s;
        incr cur
      end
    end;
    incr i
  done;
  if !ok then !cur
  else begin
    for j = tcur to !cur - 1 do
      env.(trail.(j)) <- -1
    done;
    -1
  end

(* Seed twin: match the id tuple of a delta atom instead of a row. *)
let try_match_ids ids ipats arity (env : int array) (trail : int array) tcur =
  let cur = ref tcur in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < arity do
    let p = ipats.(!i) in
    let v = ids.(!i) in
    if p >= 0 then begin if p <> v then ok := false end
    else begin
      let s = -p - 2 in
      let u = env.(s) in
      if u >= 0 then begin if u <> v then ok := false end
      else begin
        env.(s) <- v;
        trail.(!cur) <- s;
        incr cur
      end
    end;
    incr i
  done;
  if !ok then !cur
  else begin
    for j = tcur to !cur - 1 do
      env.(trail.(j)) <- -1
    done;
    -1
  end

(* Candidate rows for a resolved step: cheapest posting list among the
   statically bound positions, else a full relation scan — the same
   policy (and Obs counters) as the persistent [iter_candidates]. *)
let iter_candidates_c cs (env : int array) f =
  if Array.length cs.cst.bound = 0 then begin
    Obs.incr "plan.probe.scan";
    let n = Cinstance.Rel.rows cs.crel in
    for row = 0 to n - 1 do
      f row
    done
  end
  else begin
    let best_pos = ref (-1) and best_id = ref (-1) and best_c = ref max_int in
    Array.iter
      (fun (pos, _) ->
        let p = cs.ipats.(pos) in
        let id = if p >= 0 then p else env.(-p - 2) in
        let c = Cinstance.Rel.posting_count cs.crel pos id in
        if c < !best_c then begin
          best_c := c;
          best_pos := pos;
          best_id := id
        end)
      cs.cst.bound;
    if !best_c > 0 then begin
      Obs.incr "plan.probe.index";
      Cinstance.Rel.iter_posting cs.crel !best_pos !best_id f
    end
    else Obs.incr "plan.probe.empty"
  end

let run_steps_c csteps (env : int array) trail start_cursor emit =
  let n = Array.length csteps in
  let rec go k tcur =
    if k >= n then emit ()
    else
      let cs = csteps.(k) in
      let arity = cs.cst.arity in
      let cols = Cinstance.Rel.cols cs.crel in
      iter_candidates_c cs env (fun row ->
          let cur' = try_match_row cols cs.ipats arity env trail tcur row in
          if cur' >= 0 then begin
            go (k + 1) cur';
            for j = tcur to cur' - 1 do
              env.(trail.(j)) <- -1
            done
          end)
  in
  go 0 start_cursor

let sub_of_env_c p ci (env : int array) =
  Array.fold_left
    (fun s slot ->
      let id = env.(slot) in
      if id < 0 then s else Substitution.bind p.var_of_slot.(slot) (Cinstance.term_of_id ci id) s)
    Substitution.empty p.key_slots

let cscratch p = (Array.make (max 1 p.nslots) (-1), Array.make (max 1 p.nslots) 0)

(* The columnar enumerations, each calling [emit ()] with the match
   bound in [env].  A normal return leaves [env] as it found it; an
   exception out of [emit] (or [Sat]) leaves bindings behind, which
   [prepare] clears before the next use of a shared scratch. *)

let body_env cs p env trail emit =
  match resolve cs p.body_key p.body_order with
  | None -> ()
  | Some csteps -> run_steps_c csteps env trail 0 emit

(* Every seed position that [ids], an atom of [pred] as interned ids,
   matches, with the compiled suffix run from there. *)
let delta_env cs p env trail pred ids emit =
  let arity = Array.length ids in
  Array.iter
    (fun d ->
      if String.equal d.seed.pred pred && d.seed.arity = arity then
        match resolve cs d.seed_key d.seed_alone with
        | None -> ()
        | Some seed ->
            let cur = try_match_ids ids seed.(0).ipats arity env trail 0 in
            if cur >= 0 then begin
              Obs.incr "plan.delta.seed";
              (match resolve cs d.suffix_key d.suffix with
              | None -> ()
              | Some csteps -> run_steps_c csteps env trail cur emit);
              for j = 0 to cur - 1 do
                env.(trail.(j)) <- -1
              done
            end)
    p.delta

(* [atom] is matched as a term tuple against each head atom's pattern
   (a former witness may carry terms the store no longer holds), and
   the body runs with only the frontier slots of that head atom bound. *)
let witness_env ci p env trail atom emit =
  let pred = Atom.pred atom in
  Array.iter
    (fun (pattern, order) ->
      if String.equal pattern.pred pred then begin
        let tenv, ttrail = scratch p in
        if try_match pattern tenv ttrail 0 atom >= 0 then begin
          Obs.incr "plan.witness.seed";
          (* a frontier term the store never interned occurs in no row,
             so no body homomorphism can bind it *)
          let known =
            Array.for_all
              (fun slot ->
                match tenv.(slot) with
                | None -> true
                | Some v ->
                    let id = Cinstance.find_id ci v in
                    env.(slot) <- id;
                    id >= 0)
              p.frontier_slots
          in
          (if known then
             match resolve_steps ci order with
             | None -> ()
             | Some csteps -> run_steps_c csteps env trail 0 emit);
          Array.iter (fun slot -> env.(slot) <- -1) p.frontier_slots
        end
      end)
    (p.witness ())

exception Sat

(* Does some extension of the frontier slots bound in [env] map the
   head into the store? *)
let head_env cs p env trail =
  match resolve cs p.head_key p.head_steps with
  | None -> false
  | Some csteps -> (
      try
        run_steps_c csteps env trail 0 (fun () -> raise Sat);
        false
      with Sat -> true)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let iter_homs p src f =
  match src with
  | Persistent inst ->
      let env, trail = scratch p in
      run_steps inst p.body_order env trail 0 (fun () -> f (sub_of_env p env))
  | Columnar cs ->
      let env, trail = cscratch p in
      body_env cs p env trail (fun () -> f (sub_of_env_c p cs.ci env))

let iter_tuples p src vars f =
  let slots =
    Array.of_list
      (List.map
         (fun v ->
           match Array.find_opt (fun s -> Term.equal p.var_of_slot.(s) v) p.key_slots with
           | Some s -> s
           | None -> invalid_arg "Plan.iter_tuples: not a body variable")
         vars)
  in
  match src with
  | Persistent inst ->
      let env, trail = scratch p in
      run_steps inst p.body_order env trail 0 (fun () ->
          f (Array.fold_right (fun s acc -> Option.get env.(s) :: acc) slots []))
  | Columnar cs -> (
      (* query plans are compiled per evaluation (Conjunctive_query), so
         caching their resolution would only fill the source's map *)
      match resolve_steps cs.ci p.body_order with
      | None -> ()
      | Some csteps ->
          let env, trail = cscratch p in
          run_steps_c csteps env trail 0 (fun () ->
              f (Array.fold_right (fun s acc -> Cinstance.term_of_id cs.ci env.(s) :: acc) slots [])))

let iter_delta_homs p inst atom f =
  let pred = Atom.pred atom in
  Array.iter
    (fun d ->
      (* the delta atom comes from outside the per-predicate indexes, so
         the predicate must be checked here *)
      if String.equal d.seed.pred pred then begin
        let env, trail = scratch p in
        let cur = try_match d.seed env trail 0 atom in
        if cur >= 0 then begin
          Obs.incr "plan.delta.seed";
          run_steps inst d.suffix env trail cur (fun () -> f (sub_of_env p env))
        end
      end)
    p.delta

let head_satisfied p inst hom =
  let env, trail = scratch p in
  Array.iteri
    (fun k slot -> env.(slot) <- Some (Substitution.apply_term hom p.frontier_vars.(k)))
    p.frontier_slots;
  try
    run_steps inst p.head_steps env trail 0 (fun () -> raise Sat);
    false
  with Sat -> true

(* ------------------------------------------------------------------ *)
(* Candidate keys                                                      *)
(* ------------------------------------------------------------------ *)

module Key = struct
  type t = int array

  let equal (a : t) b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  (* Ids are small and often consecutive, so each cell is multiplied
     into the high bits and folded back down: a table indexed by the
     low bits must not see one cluster per run of ids. *)
  let hash (k : t) =
    let h = ref 0 in
    for i = 0 to Array.length k - 1 do
      let x = (!h + k.(i)) * 0x1f3d5b79a3c2e6d1 in
      h := x lxor (x lsr 29)
    done;
    !h land max_int
end

module KeyTbl = Hashtbl.Make (Key)

type scratch = { mutable env : int array; mutable trail : int array }

let new_scratch () = { env = [||]; trail = [||] }

(* The scratch env, cleared and large enough for [p]; it grows to the
   largest plan it serves and is then reused by every call. *)
let prepare sc p =
  let n = max 1 p.nslots in
  if Array.length sc.env < n then begin
    sc.env <- Array.make n (-1);
    sc.trail <- Array.make n 0
  end
  else Array.fill sc.env 0 n (-1);
  sc.env

let key_of_env p tag env =
  let n = Array.length p.key_slots in
  let k = Array.make (n + 1) tag in
  for i = 0 to n - 1 do
    k.(i + 1) <- env.(p.key_slots.(i))
  done;
  k

let iter_keys p cs sc ~tag f =
  let env = prepare sc p in
  body_env cs p env sc.trail (fun () -> f (key_of_env p tag env))

(* [None] when the store never interned one of the arguments: then no
   stored row can join with the atom. *)
let atom_ids cs atom =
  let ids = Array.map (Cinstance.find_id cs.ci) (Atom.args_a atom) in
  if Array.exists (fun id -> id < 0) ids then None else Some ids

let iter_delta_keys p cs sc ~tag pred ids f =
  let env = prepare sc p in
  delta_env cs p env sc.trail pred ids (fun () -> f (key_of_env p tag env))

let iter_witness_keys p cs sc ~tag atom f =
  let env = prepare sc p in
  witness_env cs.ci p env sc.trail atom (fun () -> f (key_of_env p tag env))

let head_satisfied_key p cs sc key =
  let env = prepare sc p in
  Array.iteri (fun k slot -> env.(slot) <- key.(p.frontier_cells.(k))) p.frontier_slots;
  head_env cs p env sc.trail

let frontier_key p key =
  let n = Array.length p.frontier_cells in
  let k = Array.make (n + 1) key.(0) in
  for i = 0 to n - 1 do
    k.(i + 1) <- key.(p.frontier_cells.(i))
  done;
  k

let hom_of_key p cs key =
  Obs.incr "plan.key.hom";
  let ci = cs.ci in
  let s = ref Substitution.empty in
  Array.iteri
    (fun i slot ->
      s := Substitution.bind p.var_of_slot.(slot) (Cinstance.term_of_id ci key.(i + 1)) !s)
    p.key_slots;
  !s

let atoms_of_tmpl tmpl term_of_slot =
  Array.fold_right
    (fun (pred, pats) acc ->
      Atom.make_a pred (Array.map (function Fixed t -> t | S s -> term_of_slot s) pats) :: acc)
    tmpl []

let body_of_key p cs key =
  let ci = cs.ci in
  atoms_of_tmpl p.body_tmpl (fun s -> Cinstance.term_of_id ci key.(p.cell_of_slot.(s)))

(* The canonical null c^{σ,h}_x of [Trigger.canonical_null], from the
   key: the digest key is ["name|text|bindings|x"], where bindings
   lists ["?V=term"] in variable order, joined by [';']. *)
let canonical_nulls p ci key =
  let prefix, labels =
    match Atomic.get p.null_key with
    | Some k -> k
    | None ->
        let k =
          ( Tgd.name p.tgd ^ "|" ^ Tgd.to_string p.tgd ^ "|",
            Array.map (fun s -> Term.to_string p.var_of_slot.(s) ^ "=") p.key_slots )
        in
        Atomic.set p.null_key (Some k);
        k
  in
  let b = Buffer.create 128 in
  Buffer.add_string b prefix;
  Array.iteri
    (fun i label ->
      if i > 0 then Buffer.add_char b ';';
      Buffer.add_string b label;
      Buffer.add_string b (Term.to_string (Cinstance.term_of_id ci key.(i + 1))))
    labels;
  Buffer.add_char b '|';
  let len = Buffer.length b in
  Array.map
    (fun slot ->
      Buffer.truncate b len;
      (match p.var_of_slot.(slot) with Term.Var x -> Buffer.add_string b x | _ -> assert false);
      Term.Null ("c" ^ String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16))
    p.ex_slots

let instantiate ?gen p cs key =
  let ci = cs.ci in
  let terms = Array.make (max 1 p.nslots) (Term.Const "") in
  let frontier = ref Term.Set.empty in
  Array.iteri
    (fun k slot ->
      let t = Cinstance.term_of_id ci key.(p.frontier_cells.(k)) in
      terms.(slot) <- t;
      frontier := Term.Set.add t !frontier)
    p.frontier_slots;
  (match gen with
  | Some g -> Array.iter (fun slot -> terms.(slot) <- Term.Gen.fresh g) p.ex_slots
  | None ->
      if Array.length p.ex_slots > 0 then
        Array.iteri (fun i null -> terms.(p.ex_slots.(i)) <- null) (canonical_nulls p ci key));
  (atoms_of_tmpl p.head_tmpl (Array.get terms), !frontier)

(* Head satisfaction is monotone for a growing store, so a positive
   answer is cached under the key's tag and frontier ids for as long as
   the ids live. *)
module Head_memo = struct
  type nonrec t = unit KeyTbl.t

  let create () = KeyTbl.create 256

  let is_active memo p cs sc key =
    let fk = frontier_key p key in
    if KeyTbl.mem memo fk then begin
      Obs.incr "plan.memo.hit";
      false
    end
    else begin
      Obs.incr "plan.memo.miss";
      if head_satisfied_key p cs sc key then begin
        KeyTbl.add memo fk ();
        false
      end
      else true
    end

  (* The next two support speculative parallel scans: workers run the
     memo-free [head_satisfied_key] (the memo is single-domain) and the
     coordinator folds their verdicts back in.  Sound for the same
     monotonicity reason as [is_active]'s cache. *)
  let known_inactive memo p key = KeyTbl.mem memo (frontier_key p key)
  let record memo p key = KeyTbl.replace memo (frontier_key p key) ()
end
