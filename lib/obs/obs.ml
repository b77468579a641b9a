(* Per-domain observability: counters, gauges, spans, events, routed
   through an optional sink (see obs.mli for the contract).

   Everything funnels through [current]; with no sink installed each
   signal is one domain-local load and one branch, so instrumentation
   can stay in hot paths unconditionally.  Both the sink and the span
   stack live in domain-local storage: a worker domain spawned by
   [Chase_exec.Pool] starts with no sink, so signals emitted from
   parallel tasks are no-ops and the (non-thread-safe) Stats/Jsonl
   sinks only ever run on the domain that installed them. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type sink = {
  on_counter : string -> int -> unit;
  on_gauge : string -> int -> unit;
  on_span : string -> float -> unit;
  on_event : string -> (string * value) list -> unit;
}

let null =
  {
    on_counter = (fun _ _ -> ());
    on_gauge = (fun _ _ -> ());
    on_span = (fun _ _ -> ());
    on_event = (fun _ _ -> ());
  }

let tee a b =
  {
    on_counter =
      (fun name n ->
        a.on_counter name n;
        b.on_counter name n);
    on_gauge =
      (fun name v ->
        a.on_gauge name v;
        b.on_gauge name v);
    on_span =
      (fun name s ->
        a.on_span name s;
        b.on_span name s);
    on_event =
      (fun name fields ->
        a.on_event name fields;
        b.on_event name fields);
  }

let current : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_current () = Domain.DLS.get current
let set_current s = Domain.DLS.set current s

let install s = set_current (Some s)
let uninstall () = set_current None
let enabled () = get_current () <> None
let current_sink () = get_current ()

let with_current saved f =
  let prev = get_current () in
  set_current saved;
  Fun.protect ~finally:(fun () -> set_current prev) f

let with_sink s f = with_current (Some s) f
let suspended f = with_current None f

(* --- clock ---------------------------------------------------------- *)

(* Wall clock by default.  [Sys.time] (process CPU seconds) was the
   original default and silently skewed span durations whenever worker
   domains burned CPU in parallel regions — every domain's CPU time
   accrues to the process, so a [--jobs N] run could report spans longer
   than the wall time unless each entry point remembered to install
   [Unix.gettimeofday] itself.  Defaulting to the wall clock makes span
   durations honest everywhere; [set_clock] still accepts any
   monotonically increasing source (tests install a virtual one) and
   re-anchors the origin so [now] never jumps across clock changes. *)
let clock = ref Unix.gettimeofday
let origin = ref (Unix.gettimeofday ())

let set_clock c =
  clock := c;
  origin := c ()

let reset_clock () = origin := !clock ()
let now () = !clock () -. !origin

(* --- signals -------------------------------------------------------- *)

let incr name = match get_current () with None -> () | Some s -> s.on_counter name 1
let count name n = match get_current () with None -> () | Some s -> s.on_counter name n
let gauge name v = match get_current () with None -> () | Some s -> s.on_gauge name v
let event name fields = match get_current () with None -> () | Some s -> s.on_event name fields

let stack : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span_path () =
  match (get_current (), Domain.DLS.get stack) with
  | None, _ | _, [] -> None
  | Some _, names -> Some (String.concat "." (List.rev names))

let span name f =
  match get_current () with
  | None -> f ()
  | Some _ ->
      Domain.DLS.set stack (name :: Domain.DLS.get stack);
      let path = String.concat "." (List.rev (Domain.DLS.get stack)) in
      let t0 = !clock () in
      Fun.protect
        ~finally:(fun () ->
          let dt = !clock () -. t0 in
          (match Domain.DLS.get stack with
          | _ :: rest -> Domain.DLS.set stack rest
          | [] -> ());
          match get_current () with None -> () | Some s -> s.on_span path dt)
        f

(* --- Stats sink ----------------------------------------------------- *)

module Stats = struct
  type t = {
    counters : (string, int) Hashtbl.t;
    gauges : (string, int) Hashtbl.t;
    spans : (string, int * float) Hashtbl.t;
    events : (string, int) Hashtbl.t;
  }

  let create () =
    {
      counters = Hashtbl.create 64;
      gauges = Hashtbl.create 16;
      spans = Hashtbl.create 16;
      events = Hashtbl.create 16;
    }

  let bump tbl name n =
    Hashtbl.replace tbl name (n + Option.value ~default:0 (Hashtbl.find_opt tbl name))

  let sink t =
    {
      on_counter = (fun name n -> bump t.counters name n);
      on_gauge = (fun name v -> Hashtbl.replace t.gauges name v);
      on_span =
        (fun name s ->
          let c, total = Option.value ~default:(0, 0.) (Hashtbl.find_opt t.spans name) in
          Hashtbl.replace t.spans name (c + 1, total +. s));
      on_event = (fun name _ -> bump t.events name 1);
    }

  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

  let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)
  let counters t = sorted t.counters
  let gauges t = sorted t.gauges
  let spans t = sorted t.spans
  let events t = sorted t.events

  let pretty_s s =
    if s < 1e-6 then Printf.sprintf "%.0f ns" (s *. 1e9)
    else if s < 1e-3 then Printf.sprintf "%.1f µs" (s *. 1e6)
    else if s < 1. then Printf.sprintf "%.2f ms" (s *. 1e3)
    else Printf.sprintf "%.2f s" s

  let pp ppf t =
    let first = ref true in
    let section title rows =
      if rows <> [] then begin
        if not !first then Format.pp_print_cut ppf ();
        first := false;
        Format.fprintf ppf "%s" title;
        let w = List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 rows in
        List.iter
          (fun (k, v) ->
            Format.fprintf ppf "@,  %s%s  %s" k (String.make (w - String.length k) ' ') v)
          rows
      end
    in
    Format.fprintf ppf "@[<v>";
    section "counters" (List.map (fun (k, v) -> (k, string_of_int v)) (counters t));
    section "gauges (last)" (List.map (fun (k, v) -> (k, string_of_int v)) (gauges t));
    section "spans"
      (List.map
         (fun (k, (c, total)) ->
           (k, Printf.sprintf "%d call%s, %s" c (if c = 1 then "" else "s") (pretty_s total)))
         (spans t));
    section "events" (List.map (fun (k, v) -> (k, string_of_int v)) (events t));
    Format.fprintf ppf "@]"
end

(* --- JSON-lines sink ------------------------------------------------ *)

module Jsonl = struct
  (* The runs between escaped characters are copied whole, so a string
     that needs no escaping costs one copy and no allocation. *)
  let add_escaped buf s =
    let n = String.length s in
    let start = ref 0 in
    for i = 0 to n - 1 do
      let esc =
        match String.unsafe_get s i with
        | '"' -> "\\\""
        | '\\' -> "\\\\"
        | '\n' -> "\\n"
        | '\t' -> "\\t"
        | '\r' -> "\\r"
        | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
        | _ -> ""
      in
      if String.length esc > 0 then begin
        Buffer.add_substring buf s !start (i - !start);
        Buffer.add_string buf esc;
        start := i + 1
      end
    done;
    Buffer.add_substring buf s !start (n - !start)

  let escape s =
    let buf = Buffer.create (String.length s) in
    add_escaped buf s;
    Buffer.contents buf

  let float_lit f =
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
    else Printf.sprintf "%.9g" f

  let value_lit = function
    | Int i -> string_of_int i
    | Float f -> float_lit f
    | Str s -> "\"" ^ escape s ^ "\""
    | Bool b -> string_of_bool b

  let head buf kind name =
    Buffer.add_string buf
      (Printf.sprintf "{\"ts\": %s, \"kind\": \"%s\", \"name\": \"%s\"" (float_lit (now ()))
         kind (escape name))

  let sink write =
    let line fill =
      let buf = Buffer.create 128 in
      fill buf;
      Buffer.add_char buf '}';
      write (Buffer.contents buf)
    in
    {
      on_counter =
        (fun name n ->
          line (fun buf ->
              head buf "counter" name;
              Buffer.add_string buf (Printf.sprintf ", \"n\": %d" n)));
      on_gauge =
        (fun name v ->
          line (fun buf ->
              head buf "gauge" name;
              Buffer.add_string buf (Printf.sprintf ", \"value\": %d" v)));
      on_span =
        (fun name s ->
          line (fun buf ->
              head buf "span" name;
              Buffer.add_string buf (Printf.sprintf ", \"s\": %s" (float_lit s))));
      on_event =
        (fun name fields ->
          line (fun buf ->
              head buf "event" name;
              (match span_path () with
              | Some p -> Buffer.add_string buf (Printf.sprintf ", \"span\": \"%s\"" (escape p))
              | None -> ());
              Buffer.add_string buf ", \"fields\": {";
              List.iteri
                (fun i (k, v) ->
                  if i > 0 then Buffer.add_string buf ", ";
                  Buffer.add_string buf (Printf.sprintf "\"%s\": %s" (escape k) (value_lit v)))
                fields;
              Buffer.add_char buf '}'));
    }

  let channel_sink oc =
    sink (fun s ->
        output_string oc s;
        output_char oc '\n')
end
