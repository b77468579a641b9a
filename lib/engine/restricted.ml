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
   memoizes satisfied heads; it carries every candidate as interned ids
   ({!Candidate}) from match to apply.  [`Naive] is the original
   generic-homomorphism search over the persistent instance, kept as the
   oracle for equivalence tests.  Both push candidate triggers into the
   pool in batches sorted by {!Trigger.compare} (on keys,
   {!Candidate.compare}) — one batch for the initial instance, one per
   produced atom — so the pop sequence, and hence the whole derivation,
   is identical across backends for every strategy. *)

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

(* A pool of pending candidates with the three policies, backed by one
   growable array: Fifo reads at a front cursor, Lifo pops the end,
   Random swap-removes — all O(1) per operation.  Dedup is a hashed set,
   so a push costs one hash instead of log-many compares.  Generic over
   the element: the store engines pool {!Candidate} keys, whose hash
   reads a few ints, the naive oracle pools [Trigger.t]s. *)
module Pool (E : Hashtbl.HashedType) = struct
  module Seen = Hashtbl.Make (E)

  type t = {
    mutable arr : E.t array;
    mutable len : int;  (* one past the last live element *)
    mutable front : int;  (* Fifo read cursor; 0 for Lifo/Random *)
    seen : unit Seen.t;
    strategy : strategy;
    rng : Random.State.t option;
  }

  let create strategy =
    let rng = match strategy with Random seed -> Some (Random.State.make [| seed |]) | _ -> None in
    { arr = [||]; len = 0; front = 0; seen = Seen.create 256; strategy; rng }

  let size pool = pool.len - pool.front

  let iter pool f =
    for i = pool.front to pool.len - 1 do
      f pool.arr.(i)
    done

  (* [replace] hashes [x] once and grows the set only when [x] is new,
     so the size tells a push from a duplicate without a second hash. *)
  let push pool x =
    let before = Seen.length pool.seen in
    Seen.replace pool.seen x ();
    if Seen.length pool.seen = before then Obs.incr "restricted.pool.dup"
    else begin
      Obs.incr "restricted.pool.push";
      let cap = Array.length pool.arr in
      if pool.len = cap then begin
        (* grow, seeding the new array with [x] so no dummy is needed *)
        let arr' = Array.make (max 8 (2 * cap)) x in
        Array.blit pool.arr 0 arr' 0 pool.len;
        pool.arr <- arr'
      end;
      pool.arr.(pool.len) <- x;
      pool.len <- pool.len + 1
    end

  let push_batch pool xs = List.iter (push pool) xs

  let pop pool =
    match pool.strategy with
    | Fifo ->
        if pool.front >= pool.len then None
        else begin
          let x = pool.arr.(pool.front) in
          pool.front <- pool.front + 1;
          Some x
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
          let x = pool.arr.(k) in
          pool.len <- pool.len - 1;
          pool.arr.(k) <- pool.arr.(pool.len);
          Some x
        end

  (* The next [k] pops in pop order, without consuming anything — the
     speculative window of the parallel activity scan.  Fifo/Lifo just
     read the array; Random copies the RNG and simulates its
     swap-removes in an overlay table, so replaying the real pops
     afterwards consumes the exact same elements and RNG draws. *)
  let peek_order pool k =
    let k = min k (size pool) in
    match pool.strategy with
    | Fifo -> Array.init k (fun i -> pool.arr.(pool.front + i))
    | Lifo -> Array.init k (fun i -> pool.arr.(pool.len - 1 - i))
    | Random _ ->
        let rng = Random.State.copy (Option.get pool.rng) in
        let overlay = Hashtbl.create 16 in
        let get i =
          match Hashtbl.find_opt overlay i with Some x -> x | None -> pool.arr.(i)
        in
        let len = ref pool.len in
        Array.init k (fun _ ->
            let j = Random.State.int rng !len in
            let x = get j in
            decr len;
            Hashtbl.replace overlay j (get !len);
            x)

  (* Budget-exhaustion status: every trigger that is still active on
     the final instance sits in the pool (a trigger is discovered when
     its last body atom is added; applied or inactive ones stay
     inactive forever by monotonicity), so draining the pool until the
     first active candidate answers Terminated-vs-Out_of_budget without
     re-enumerating all triggers.  Destructive. *)
  let drain_status pool is_active =
    let rec go () =
      match pop pool with
      | None -> Derivation.Terminated
      | Some x ->
          Obs.incr "restricted.drain";
          if is_active x then Derivation.Out_of_budget else go ()
    in
    go ()
end

module Cand_pool = Pool (Candidate)
module Trigger_pool = Pool (Trigger)

let default_max_steps = 10_000

(* [make_next_active ~epool ~run ~memo pool] is the activity scan
   shared by [run_store] and the resumable {!Incremental} state:
   repeated calls pop candidates until the first active one (None =
   pool drained).  Sequentially that is one pop + memoized activity
   test per iteration.  With a parallel [epool], a speculative window
   of the upcoming pops ([Pool.peek_order]) is tested at once against
   the frozen instance and the first active one {e in pop order} wins;
   the window's real pops are then replayed so the pool and RNG state
   match the sequential engine exactly.  The speculative verdicts are
   final — activity is monotone downwards and the instance does not
   grow during a scan — so the pop sequence is bit-identical to
   sequential, and verdicts beyond the winner are folded into the head
   memo rather than wasted.  The widening window is per-closure state:
   create one scanner per run (or per resumed chase call). *)
let make_next_active ~epool ~run ~memo pool =
  let next_active_seq () =
    let rec go () =
      match Cand_pool.pop pool with
      | None -> None
      | Some c ->
          if Candidate.is_active run memo c then Some c
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
    let rec go () =
      if Cand_pool.size pool = 0 then None
      else begin
        let cands = Cand_pool.peek_order pool !window in
        let k = Array.length cands in
        let active = Array.make k false in
        (* coordinator-side memo pass: only unknown candidates fan out *)
        let unknown = ref [] in
        Array.iteri
          (fun i c ->
            if not (Plan.Head_memo.known_inactive memo (Candidate.plan run c) c) then
              unknown := i :: !unknown)
          cands;
        let unknown = Array.of_list (List.rev !unknown) in
        let satisfied =
          Exec.map_array epool (fun i -> Candidate.head_satisfied run cands.(i)) unknown
        in
        Array.iteri
          (fun j i ->
            if satisfied.(j) then
              let c = cands.(i) in
              Plan.Head_memo.record memo (Candidate.plan run c) c
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
            ignore (Cand_pool.pop pool);
            Obs.incr "restricted.inactive"
          done;
          window := min 4096 (2 * !window);
          go ()
        end
        else begin
          for _ = 1 to !first do
            ignore (Cand_pool.pop pool);
            Obs.incr "restricted.inactive"
          done;
          window := base_window;
          Cand_pool.pop pool
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
  let pool = Trigger_pool.create strategy in
  let push_batch ts = Trigger_pool.push_batch pool (List.sort Trigger.compare (List.of_seq ts)) in
  push_batch (Trigger.all_naive tgds database);
  let rec loop instance steps_rev n =
    if n >= max_steps then begin
      let status = Trigger_pool.drain_status pool (Trigger.is_active_naive instance) in
      obs_done status n;
      Derivation.make ~database ~steps:(List.rev steps_rev) ~status
    end
    else
      match Trigger_pool.pop pool with
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
            List.iter (fun atom -> push_batch (Trigger.involving_naive tgds after atom)) produced;
            obs_step trigger produced ~pool_size:(Trigger_pool.size pool) ~index:n;
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
   it on the columnar store.  Candidates stay id keys from discovery to
   application; only an applied step builds its [Trigger.t]. *)
let run_store ~backend ~strategy ~max_steps ~gen ~epool tgds database =
  obs_run_start ~backend:(backend :> backend) ~strategy ~max_steps database;
  let facts = (Store.of_instance backend database).facts in
  let run =
    Candidate.create (Plan.csource facts) (List.map (fun tgd -> (tgd, Plan.of_tgd tgd)) tgds)
  in
  let memo = Plan.Head_memo.create () in
  let pool = Cand_pool.create strategy in
  Cand_pool.push_batch pool (Candidate.seed run);
  let next_active = make_next_active ~epool ~run ~memo pool in
  (* The store no longer changes once the run ends, so the last step's
     instance is its snapshot: one fold of the atoms queued since the
     load, where forcing the chain of step snapshots would build, and
     keep, one persistent instance per step. *)
  let finish steps_rev status n =
    obs_done status n;
    let steps =
      match steps_rev with
      | last :: rest ->
          List.rev ({ last with Derivation.after = lazy (Cinstance.snapshot facts) } :: rest)
      | [] -> []
    in
    Derivation.make ~database ~steps ~status
  in
  let rec loop prev steps_rev n =
    if n >= max_steps then finish steps_rev (Cand_pool.drain_status pool (Candidate.is_active run memo)) n
    else
      match next_active () with
      | None -> finish steps_rev Derivation.Terminated n
      | Some c ->
          let produced, frontier = Candidate.instantiate ?gen run c in
          List.iter (fun atom -> ignore (Cinstance.add facts atom)) produced;
          List.iter (fun atom -> Cand_pool.push_batch pool (Candidate.delta run atom)) produced;
          let trigger = Candidate.trigger run c in
          obs_step trigger produced ~pool_size:(Cand_pool.size pool) ~index:n;
          let after =
            lazy (List.fold_left (fun i a -> Instance.add a i) (Lazy.force prev) produced)
          in
          let step = { Derivation.index = n; trigger; produced; frontier; after } in
          loop after (step :: steps_rev) (n + 1)
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
