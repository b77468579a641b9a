(* A named serve-side session: a resumable chase state
   (Chase_engine.Incremental) plus the robustness plumbing — hard
   budgets, a per-session stats sink, and the bookkeeping the `stats`
   request reports.  Budget semantics are documented in
   docs/SERVICE.md. *)

type budgets = {
  max_steps : int;  (* per chase call *)
  max_facts : int;  (* instance-cardinality cap *)
  max_wall_ms : float;  (* per chase call, polled every 32 steps *)
}

let default_budgets = { max_steps = 10_000; max_facts = 1_000_000; max_wall_ms = 10_000.0 }

let resolve_budgets ~defaults (o : Protocol.budgets_override) =
  {
    max_steps = Option.value o.Protocol.max_steps ~default:defaults.max_steps;
    max_facts = Option.value o.Protocol.max_facts ~default:defaults.max_facts;
    max_wall_ms = Option.value o.Protocol.max_wall_ms ~default:defaults.max_wall_ms;
  }

type chase_record = {
  steps : int;
  incremental : bool;
  saturated : bool;
  limit : Chase_engine.Incremental.limit option;
  wall_ms : float;
}

type t = {
  name : string;
  budgets : budgets;
  inc : Chase_engine.Incremental.t;
  stats : Obs.Stats.t;
  mutable last_chase : chase_record option;
}

let create ~name ~budgets ?(backend = `Columnar) tgds database =
  {
    name;
    budgets;
    inc = Chase_engine.Incremental.create ~backend tgds database;
    stats = Obs.Stats.create ();
    last_chase = None;
  }

let backend t = Chase_engine.Incremental.backend t.inc

let name t = t.name
let budgets t = t.budgets
let incremental t = t.inc
let stats t = t.stats
let last_chase t = t.last_chase

(* Run [f] with this session's stats sink installed, teed with whatever
   sink the server already has (--stats / --trace-json), so engine
   signals land in both the per-session snapshot and the global one. *)
let with_obs t f =
  let mine = Obs.Stats.sink t.stats in
  let sink = match Obs.current_sink () with Some g -> Obs.tee g mine | None -> mine in
  Obs.with_sink sink f

let chase ?epool ?max_steps t =
  let max_steps =
    match max_steps with
    | None -> t.budgets.max_steps
    | Some n -> min n t.budgets.max_steps
  in
  let start = Unix.gettimeofday () in
  let deadline () = (Unix.gettimeofday () -. start) *. 1000.0 > t.budgets.max_wall_ms in
  let o =
    with_obs t (fun () ->
        Chase_engine.Incremental.chase ?epool ~max_steps ~deadline ~max_facts:t.budgets.max_facts
          t.inc)
  in
  let r =
    {
      steps = o.Chase_engine.Incremental.steps;
      incremental = o.Chase_engine.Incremental.incremental;
      saturated = o.Chase_engine.Incremental.saturated;
      limit = o.Chase_engine.Incremental.limit;
      wall_ms = (Unix.gettimeofday () -. start) *. 1000.0;
    }
  in
  t.last_chase <- Some r;
  r

let assert_atoms t atoms = with_obs t (fun () -> Chase_engine.Incremental.assert_atoms t.inc atoms)
let retract_atoms t atoms = with_obs t (fun () -> Chase_engine.Incremental.retract_atoms t.inc atoms)
