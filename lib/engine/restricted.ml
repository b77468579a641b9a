(* The restricted (standard) chase (paper §3.2).

   Starting from a database, repeatedly apply an *active* trigger until no
   active trigger remains (Terminated) or a step budget runs out.  Which
   active trigger is applied is the engine's only source of
   non-determinism, made explicit by [strategy]: the paper's CTres∀∀
   quantifies over all derivations, so callers can steer it.

   Candidate triggers are discovered incrementally: once an atom is added,
   only triggers whose body uses that atom are new.  Activity is monotone
   downwards (instances only grow, so a satisfied head stays satisfied), so
   a candidate found inactive can be dropped for good.

   Two engines run the same schedule.  The store-backed one ([`Compiled],
   the default, and its alias [`Columnar]) matches bodies with compiled
   join plans ({!Plan}) over the interned columnar store
   ({!Chase_core.Cinstance}), id-comparing in the inner join loop, and
   memoizes satisfied heads; [`Naive] is the original
   generic-homomorphism search over the persistent instance, kept as the
   oracle for equivalence tests.  Both push candidate triggers into the
   pool in batches sorted by {!Trigger.compare} — one batch for the
   initial instance, one per produced atom — so the pop sequence, and
   hence the whole derivation, is identical across backends for every
   strategy. *)

open Chase_core
module Exec = Chase_exec.Pool

type strategy =
  | Fifo  (* oldest candidate first — yields fair derivations *)
  | Lifo  (* newest candidate first — depth-first, possibly unfair *)
  | Random of int  (* uniformly random candidate, seeded *)

type backend = Backend.t

let strategy_name = function
  | Fifo -> "fifo"
  | Lifo -> "lifo"
  | Random _ -> "random"

let backend_name = Backend.name

module TrigTbl = Hashtbl.Make (Trigger)

(* A pool of pending candidate triggers with the three policies, backed by
   one growable array: Fifo reads at a front cursor, Lifo pops the end,
   Random swap-removes — all O(1) per operation.  Dedup is a hashed set,
   so a push costs one hash instead of log-many substitution compares. *)
module Pool = struct
  type t = {
    mutable arr : Trigger.t array;
    mutable len : int;  (* one past the last live element *)
    mutable front : int;  (* Fifo read cursor; 0 for Lifo/Random *)
    seen : unit TrigTbl.t;
    strategy : strategy;
    rng : Random.State.t option;
  }

  let create strategy =
    let rng = match strategy with Random seed -> Some (Random.State.make [| seed |]) | _ -> None in
    { arr = [||]; len = 0; front = 0; seen = TrigTbl.create 256; strategy; rng }

  let size pool = pool.len - pool.front

  let iter pool f =
    for i = pool.front to pool.len - 1 do
      f pool.arr.(i)
    done

  (* [replace] hashes [t] once and grows the set only when [t] is new,
     so the size tells a push from a duplicate without a second hash. *)
  let push pool t =
    let before = TrigTbl.length pool.seen in
    TrigTbl.replace pool.seen t ();
    if TrigTbl.length pool.seen = before then Obs.incr "restricted.pool.dup"
    else begin
      Obs.incr "restricted.pool.push";
      let cap = Array.length pool.arr in
      if pool.len = cap then begin
        (* grow, seeding the new array with [t] so no dummy is needed *)
        let arr' = Array.make (max 8 (2 * cap)) t in
        Array.blit pool.arr 0 arr' 0 pool.len;
        pool.arr <- arr'
      end;
      pool.arr.(pool.len) <- t;
      pool.len <- pool.len + 1
    end

  (* Candidates are pushed in canonically sorted batches so that both
     backends fill the pool identically (see the header comment). *)
  let push_batch pool ts = List.iter (push pool) (List.sort Trigger.compare ts)

  let pop pool =
    match pool.strategy with
    | Fifo ->
        if pool.front >= pool.len then None
        else begin
          let t = pool.arr.(pool.front) in
          pool.front <- pool.front + 1;
          Some t
        end
    | Lifo ->
        if pool.len = 0 then None
        else begin
          pool.len <- pool.len - 1;
          Some pool.arr.(pool.len)
        end
    | Random _ ->
        if pool.len = 0 then None
        else begin
          let rng = Option.get pool.rng in
          let k = Random.State.int rng pool.len in
          let t = pool.arr.(k) in
          pool.len <- pool.len - 1;
          pool.arr.(k) <- pool.arr.(pool.len);
          Some t
        end

  (* The next [k] pops in pop order, without consuming anything — the
     speculative window of the parallel activity scan.  Fifo/Lifo just
     read the array; Random copies the RNG and simulates its
     swap-removes in an overlay table, so replaying the real pops
     afterwards consumes the exact same triggers and RNG draws. *)
  let peek_order pool k =
    let k = min k (size pool) in
    match pool.strategy with
    | Fifo -> Array.init k (fun i -> pool.arr.(pool.front + i))
    | Lifo -> Array.init k (fun i -> pool.arr.(pool.len - 1 - i))
    | Random _ ->
        let rng = Random.State.copy (Option.get pool.rng) in
        let overlay = Hashtbl.create 16 in
        let get i =
          match Hashtbl.find_opt overlay i with Some t -> t | None -> pool.arr.(i)
        in
        let len = ref pool.len in
        Array.init k (fun _ ->
            let j = Random.State.int rng !len in
            let t = get j in
            decr len;
            Hashtbl.replace overlay j (get !len);
            t)
end

let default_max_steps = 10_000

(* [make_next_active ~epool ~plan_of ~src ~memo pool] is the activity
   scan shared by [run_store] and the resumable {!Incremental}
   state: repeated calls pop candidates until the first active one
   (None = pool drained).  Sequentially that is one pop + memoized
   activity test per iteration.  With a parallel [epool], a speculative
   window of the upcoming pops ([Pool.peek_order]) is tested at once
   against the frozen instance and the first active one {e in pop
   order} wins; the window's real pops are then replayed so the pool
   and RNG state match the sequential engine exactly.  The speculative
   verdicts are final — activity is monotone downwards and the instance
   does not grow during a scan — so the pop sequence is bit-identical
   to sequential, and verdicts beyond the winner are folded into the
   head memo rather than wasted.  The widening window is per-closure
   state: create one scanner per run (or per resumed chase call). *)
let make_next_active ~epool ~plan_of ~src ~memo pool =
  let is_active trigger =
    Plan.Head_memo.is_active memo (plan_of (Trigger.tgd trigger)) src (Trigger.hom trigger)
  in
  let next_active_seq () =
    let rec go () =
      match Pool.pop pool with
      | None -> None
      | Some trigger ->
          if is_active trigger then Some trigger
          else begin
            Obs.incr "restricted.inactive";
            go ()
          end
    in
    go ()
  in
  if not (Exec.is_parallel epool) then next_active_seq
  else begin
    let base_window = 2 * Exec.jobs epool in
    let window = ref base_window in
    let head_satisfied t =
      Plan.head_satisfied (plan_of (Trigger.tgd t)) src (Trigger.hom t)
    in
    let rec go () =
      if Pool.size pool = 0 then None
      else begin
        let cands = Pool.peek_order pool !window in
        let k = Array.length cands in
        let active = Array.make k false in
        (* coordinator-side memo pass: only unknown triggers fan out *)
        let unknown = ref [] in
        Array.iteri
          (fun i t ->
            if
              not
                (Plan.Head_memo.known_inactive memo
                   (plan_of (Trigger.tgd t))
                   (Trigger.hom t))
            then unknown := i :: !unknown)
          cands;
        let unknown = Array.of_list (List.rev !unknown) in
        let satisfied = Exec.map_array epool (fun i -> head_satisfied cands.(i)) unknown in
        Array.iteri
          (fun j i ->
            if satisfied.(j) then
              let t = cands.(i) in
              Plan.Head_memo.record memo (plan_of (Trigger.tgd t)) (Trigger.hom t)
            else active.(i) <- true)
          unknown;
        let first = ref (-1) in
        (try
           for i = 0 to k - 1 do
             if active.(i) then begin
               first := i;
               raise Exit
             end
           done
         with Exit -> ());
        if !first < 0 then begin
          (* whole window inactive: consume it, widen, rescan *)
          for _ = 1 to k do
            ignore (Pool.pop pool);
            Obs.incr "restricted.inactive"
          done;
          window := min 4096 (2 * !window);
          go ()
        end
        else begin
          for _ = 1 to !first do
            ignore (Pool.pop pool);
            Obs.incr "restricted.inactive"
          done;
          window := base_window;
          Pool.pop pool
        end
      end
    in
    go
  end

(* Observability hooks, shared by both engines (all no-ops unless a
   sink is installed; the step-event payload is only built when one is). *)
let obs_run_start ~backend ~strategy ~max_steps database =
  if Obs.enabled () then
    Obs.event "run"
      [
        ("engine", Obs.Str "restricted");
        ("backend", Obs.Str (backend_name backend));
        ("strategy", Obs.Str (strategy_name strategy));
        ("max_steps", Obs.Int max_steps);
        ("database_atoms", Obs.Int (Instance.cardinal database));
      ]

let obs_step trigger produced ~pool_size ~index =
  Obs.incr "restricted.steps";
  Obs.gauge "restricted.pool" pool_size;
  if Obs.enabled () then
    Obs.event "step"
      [
        ("engine", Obs.Str "restricted");
        ("index", Obs.Int index);
        ("tgd", Obs.Str (Tgd.name (Trigger.tgd trigger)));
        ("produced", Obs.Int (List.length produced));
        ("atoms", Obs.Str (String.concat ", " (List.map Atom.to_string produced)));
        ("pool", Obs.Int pool_size);
      ]

let obs_done status steps =
  if Obs.enabled () then
    Obs.event "done"
      [
        ("engine", Obs.Str "restricted");
        ( "status",
          Obs.Str
            (match status with
            | Derivation.Terminated -> "terminated"
            | Derivation.Out_of_budget -> "out_of_budget") );
        ("steps", Obs.Int steps);
      ]

(* Budget-exhaustion status: every trigger that is still active on the
   final instance sits in the pool (a trigger is discovered when its last
   body atom is added; applied or inactive ones stay inactive forever by
   monotonicity), so draining the pool until the first active candidate
   answers Terminated-vs-Out_of_budget without re-enumerating all
   triggers. *)
let drain_status pool is_active =
  let rec go () =
    match Pool.pop pool with
    | None -> Derivation.Terminated
    | Some t ->
        Obs.incr "restricted.drain";
        if is_active t then Derivation.Out_of_budget else go ()
  in
  go ()

let resolve_gen naming gen =
  (* [`Canonical] names nulls c^{σ,h}_x as in Def 3.1, so produced atoms
     coincide literally with real-oblivious-chase atoms (used when mapping
     derivations into ochase(D,T)); [`Fresh] uses a cheap counter. *)
  match (naming, gen) with
  | `Canonical, _ -> None
  | `Fresh, Some g -> Some g
  | `Fresh, None -> Some (Term.Gen.create ())

let run_naive ~strategy ~max_steps ~gen tgds database =
  obs_run_start ~backend:`Naive ~strategy ~max_steps database;
  let pool = Pool.create strategy in
  Pool.push_batch pool (List.of_seq (Trigger.all_naive tgds database));
  let rec loop instance steps_rev n =
    if n >= max_steps then begin
      let status = drain_status pool (Trigger.is_active_naive instance) in
      obs_done status n;
      Derivation.make ~database ~steps:(List.rev steps_rev) ~status
    end
    else
      match Pool.pop pool with
      | None ->
          obs_done Derivation.Terminated n;
          Derivation.make ~database ~steps:(List.rev steps_rev) ~status:Terminated
      | Some trigger ->
          if not (Trigger.is_active_naive instance trigger) then begin
            Obs.incr "restricted.inactive";
            loop instance steps_rev n
          end
          else begin
            let after, produced = Trigger.apply ?gen instance trigger in
            List.iter
              (fun atom ->
                Pool.push_batch pool (List.of_seq (Trigger.involving_naive tgds after atom)))
              produced;
            obs_step trigger produced ~pool_size:(Pool.size pool) ~index:n;
            let step =
              {
                Derivation.index = n;
                trigger;
                produced;
                frontier = Trigger.frontier_terms trigger;
                after = Lazy.from_val after;
              }
            in
            loop after (step :: steps_rev) (n + 1)
          end
  in
  loop database [] 0

(* The store-backed engine: both tags, [`Compiled] and [`Columnar], run
   it on the columnar store. *)
let run_store ~backend ~strategy ~max_steps ~gen ~epool tgds database =
  obs_run_start ~backend:(backend :> backend) ~strategy ~max_steps database;
  let { Store.facts; source = src } = Store.of_instance backend database in
  let plans = List.map (fun tgd -> (tgd, Plan.of_tgd tgd)) tgds in
  let memo = Plan.Head_memo.create () in
  (* Every trigger in this run carries a tgd from [plans] itself, so the
     plan lookup on the pop path can be physical equality. *)
  let plan_of tgd =
    match List.find_opt (fun (t, _) -> t == tgd) plans with
    | Some (_, p) -> p
    | None -> Plan.of_tgd tgd
  in
  let is_active trigger =
    Plan.Head_memo.is_active memo (plan_of (Trigger.tgd trigger)) src (Trigger.hom trigger)
  in
  let pool = Pool.create strategy in
  let seed = ref [] in
  List.iter
    (fun (tgd, p) -> Plan.iter_homs p src (fun hom -> seed := Trigger.make tgd hom :: !seed))
    plans;
  Pool.push_batch pool !seed;
  let next_active = make_next_active ~epool ~plan_of ~src ~memo pool in
  let rec loop prev steps_rev n =
    if n >= max_steps then begin
      let status = drain_status pool is_active in
      obs_done status n;
      Derivation.make ~database ~steps:(List.rev steps_rev) ~status
    end
    else
      match next_active () with
      | None ->
          obs_done Derivation.Terminated n;
          Derivation.make ~database ~steps:(List.rev steps_rev) ~status:Terminated
      | Some trigger ->
          begin
            let produced = Trigger.result ?gen trigger in
            List.iter (fun atom -> ignore (Cinstance.add facts atom)) produced;
            List.iter
              (fun atom ->
                let batch = ref [] in
                List.iter
                  (fun (tgd, p) ->
                    Plan.iter_delta_homs p src atom (fun hom ->
                        batch := Trigger.make tgd hom :: !batch))
                  plans;
                Pool.push_batch pool !batch)
              produced;
            obs_step trigger produced ~pool_size:(Pool.size pool) ~index:n;
            let after =
              lazy (List.fold_left (fun i a -> Instance.add a i) (Lazy.force prev) produced)
            in
            let step =
              {
                Derivation.index = n;
                trigger;
                produced;
                frontier = Trigger.frontier_terms trigger;
                after;
              }
            in
            loop after (step :: steps_rev) (n + 1)
          end
  in
  loop (Lazy.from_val database) [] 0

let run ?(backend = `Compiled) ?(strategy = Fifo) ?(max_steps = default_max_steps)
    ?(naming = `Fresh) ?gen ?(pool = Exec.inline) tgds database =
  let gen = resolve_gen naming gen in
  Obs.span "restricted.run" (fun () ->
      match backend with
      | `Naive -> run_naive ~strategy ~max_steps ~gen tgds database
      | (`Compiled | `Columnar) as b ->
          run_store ~backend:b ~strategy ~max_steps ~gen ~epool:pool tgds database)

(* Convenience: chase to completion or fail. *)
exception Did_not_terminate of Derivation.t

let run_exn ?backend ?strategy ?max_steps ?naming ?gen ?pool tgds database =
  let d = run ?backend ?strategy ?max_steps ?naming ?gen ?pool tgds database in
  match Derivation.status d with
  | Terminated -> Derivation.final d
  | Out_of_budget -> raise (Did_not_terminate d)

(* All active triggers on an instance, eagerly. *)
let active_triggers tgds instance =
  Trigger.all tgds instance |> Seq.filter (Trigger.is_active instance) |> List.of_seq
