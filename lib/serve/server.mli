(** The [chasectl serve] request loop: a registry of named {!Session}s
    driven by the JSON-lines protocol of docs/SERVICE.md.  One request
    per input line, exactly one reply line per request; malformed input
    and failing programs produce structured error replies, never a dead
    server. *)

type config = {
  max_sessions : int;  (** admission control: [busy] beyond this *)
  defaults : Session.budgets;  (** for sessions without overrides *)
  backend : Chase_engine.Store.backend;
      (** store backend for sessions whose [load-program] has no
          ["backend"] field — the CLI's [--backend]; [`Columnar] in
          {!default_config} *)
}

val default_config : config

(** 16 MiB: the longest request line {!serve_channels} reads, newline
    excluded; a longer one gets a [line-too-long] reply. *)
val max_line_bytes : int

type t

(** [create ?epool config] builds an empty server.  All chase work runs
    on [epool] (default: inline). *)
val create : ?epool:Chase_exec.Pool.t -> config -> t

val session_count : t -> int

(** Handle one request line, returning the reply as a JSON value.
    Total: every exception becomes an error reply. *)
val dispatch : t -> string -> Json.t

(** {!dispatch} rendered as one line (no trailing newline). *)
val dispatch_line : t -> string -> string

(** Read request lines from [ic] until EOF, writing one reply line per
    request to [oc] (blank lines are skipped, replies flushed).  A line
    over [max_line_bytes] is not kept: it gets one [line-too-long]
    error reply and reading resumes after its newline. *)
val serve_channels : t -> in_channel -> out_channel -> unit

(** Serve stdin/stdout — the [chasectl serve] default transport. *)
val serve_stdio : t -> unit

(** Unlink [path] if it is a leftover socket; no-op when nothing is
    there.  Raises [Failure] when the path holds anything else (a
    regular file, a directory) rather than silently deleting it. *)
val remove_stale_socket : string -> unit

(** Bind a Unix-domain socket at [path] (via {!remove_stale_socket})
    and serve connections sequentially, forever, with SIGPIPE ignored
    so a client vanishing mid-reply cannot kill the server.  Sessions
    survive across connections. *)
val serve_unix : t -> string -> 'a

(** Same over loopback TCP. *)
val serve_tcp : t -> int -> 'a
