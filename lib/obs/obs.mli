(** Zero-dependency observability substrate for the chase engines.

    The library publishes four kinds of signals, all routed through one
    per-domain {!type:sink}:

    - {b counters} — monotonic event counts ({!incr}, {!count});
    - {b gauges} — last-value measurements such as pool sizes ({!gauge});
    - {b spans} — wall-clock timers scoped to a dynamic extent, nested
      along the thread of execution ({!span});
    - {b events} — structured one-shot records with typed fields
      ({!event}), e.g. one record per chase step when tracing.

    By default {e no sink is installed} and every signal is a single
    branch on a [ref] — the instrumented hot paths (join-plan probes,
    [Cinstance.add], pool pushes) pay near-zero overhead; see
    [docs/OBSERVABILITY.md] for measured numbers.  Installing a sink
    ({!install}, {!with_sink}) turns the signals on for its dynamic
    extent.  Two sinks ship with the library: {!Stats} (in-memory
    aggregation, snapshot at the end) and {!Jsonl} (one JSON object per
    signal, the [--trace-json] format); {!tee} composes sinks.

    The module depends only on the OCaml stdlib and [unix]: the clock
    defaults to [Unix.gettimeofday] (wall time — honest for spans that
    cover parallel regions, where CPU time over- or under-reports), and
    {!set_clock} installs any other monotonically increasing source,
    re-anchoring the origin of {!now}.

    {b Domains.}  The sink and the span stack are domain-local: a
    freshly spawned domain (e.g. a [Chase_exec.Pool] worker) starts with
    no sink, so signals it emits are no-ops.  This keeps the bundled
    sinks — which are not thread-safe — confined to the domain that
    installed them, and makes observation passive under [--jobs N] by
    construction; parallel components report aggregate [pool.*] signals
    from the coordinating domain instead. *)

(** Field values of structured {!event} records. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type sink = {
  on_counter : string -> int -> unit;  (** name, increment *)
  on_gauge : string -> int -> unit;  (** name, last value *)
  on_span : string -> float -> unit;
      (** dot-joined span path, elapsed seconds; called at span exit *)
  on_event : string -> (string * value) list -> unit;  (** name, fields *)
}

(** A sink that drops everything (useful as a [tee] identity). *)
val null : sink

(** [tee a b] forwards every signal to [a] and then to [b]. *)
val tee : sink -> sink -> sink

(** {1 Installation} *)

(** Install [s] as the calling domain's sink (replacing any current
    one).  Other domains are unaffected. *)
val install : sink -> unit

(** Remove the current sink; signals become no-ops again. *)
val uninstall : unit -> unit

(** Is a sink currently installed?  Instrumentation uses this to skip
    building expensive event payloads when nobody is listening. *)
val enabled : unit -> bool

(** The calling domain's current sink, if any.  Lets a component compose
    its own sink with whatever is already installed ([tee]) instead of
    replacing it — the serve layer tees per-session stats sinks with the
    process-wide [--stats]/[--trace-json] sink this way. *)
val current_sink : unit -> sink option

(** [with_sink s f] runs [f] with [s] installed, restoring the previous
    sink afterwards (also on exceptions). *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** [suspended f] runs [f] with {e no} sink installed, restoring the
    previous sink afterwards.  The bench harness wraps its timed
    closures in this so measured throughput stays sink-free. *)
val suspended : (unit -> 'a) -> 'a

(** {1 Clock} *)

(** Replace the time source (seconds, monotonically increasing) and
    re-anchor the origin of {!now} at the new source's current instant.
    The default is [Unix.gettimeofday] — wall time, correct for span
    durations even when worker domains burn CPU in parallel ([Sys.time]
    counts every domain's CPU and would skew them). *)
val set_clock : (unit -> float) -> unit

(** Seconds since {!reset_clock} (or process start) per the current
    clock; the [ts] field of {!Jsonl} records. *)
val now : unit -> float

(** Re-zero {!now}'s origin at the current instant. *)
val reset_clock : unit -> unit

(** {1 Signals}

    All of these are no-ops when no sink is installed. *)

(** [incr name] bumps counter [name] by 1 (the hot-path entry point). *)
val incr : string -> unit

(** [count name n] bumps counter [name] by [n]. *)
val count : string -> int -> unit

(** [gauge name v] records [v] as the latest value of gauge [name]. *)
val gauge : string -> int -> unit

(** [event name fields] emits one structured record.  Callers guard the
    construction of [fields] with {!enabled} when it allocates. *)
val event : string -> (string * value) list -> unit

(** [span name f] times [f], nesting under any enclosing span: the sink
    sees the dot-joined path (["decide.search"] for a ["search"] span
    inside a ["decide"] span).  Exceptions propagate; the span still
    closes. *)
val span : string -> (unit -> 'a) -> 'a

(** The current dot-joined span path, if inside one and a sink is on. *)
val span_path : unit -> string option

(** {1 Sinks} *)

(** In-memory aggregation: counters sum, gauges keep the last value,
    spans accumulate count and total elapsed time, events are counted
    per name.  Snapshot accessors return sorted associations. *)
module Stats : sig
  type t

  val create : unit -> t
  val sink : t -> sink

  (** Total for one counter (0 when never bumped). *)
  val counter : t -> string -> int

  val counters : t -> (string * int) list
  val gauges : t -> (string * int) list

  (** Per span path: (invocations, total elapsed seconds). *)
  val spans : t -> (string * (int * float)) list

  (** Events seen, per event name. *)
  val events : t -> (string * int) list

  (** Human-readable table (the [chasectl --stats] output). *)
  val pp : Format.formatter -> t -> unit
end

(** JSON-lines emission: every signal becomes one self-contained JSON
    object on its own line.  The schema (documented with examples in
    [docs/OBSERVABILITY.md]):

    - [{"ts": s, "kind": "counter", "name": n, "n": i}]
    - [{"ts": s, "kind": "gauge",   "name": n, "value": i}]
    - [{"ts": s, "kind": "span",    "name": path, "s": elapsed}]
    - [{"ts": s, "kind": "event",   "name": n, "span": path?,
        "fields": {...}}]

    [ts] is {!now} at emission.  [span] is present only inside a span. *)
module Jsonl : sig
  (** [sink write] sends each serialized line (no trailing newline) to
      [write]. *)
  val sink : (string -> unit) -> sink

  (** [channel_sink oc] writes newline-terminated records to [oc]. *)
  val channel_sink : out_channel -> sink

  (** JSON string-escape (no surrounding quotes); exposed for tests. *)
  val escape : string -> string

  (** [add_escaped buf s] appends [escape s] to [buf] without building
      it: a string that needs no escaping is added whole. *)
  val add_escaped : Buffer.t -> string -> unit
end
