(** A small stdlib-only domain pool for deterministic fan-out.

    [Chase_exec.Pool] runs batches of independent tasks across OCaml 5
    domains with an {e ordered deterministic join}: {!map_array} returns
    results in input-index order no matter which domain computed which
    chunk, so a parallel map is observationally a sequential [Array.map]
    of a pure function.  All determinism arguments in the engines
    (DESIGN.md §7) reduce to this property.

    Worker domains are spawned once per pool ({!create}) and reused
    across submissions; each submission is chunked and chunks are
    claimed by an atomic cursor, so skewed task costs balance
    dynamically while the join order stays fixed.  A pool with
    [jobs <= 1] (and [Pool.inline]) degrades to inline execution on the
    calling domain — byte-identical to not having a pool at all, which
    is what keeps the [--jobs 1] paths regression-free.

    {b Task contract.}  Task functions must not mutate shared state:
    they may read frozen structures (the columnar store between
    chase steps, a compiled {!Plan}) and write only to their own result
    slot.  Observability inside task bodies is suspended — worker
    domains have no sink by construction (domain-local sinks, see
    [lib/obs]), and the coordinating domain participates sink-free —
    so a parallel region reports only the aggregate [pool.*] signals:
    [pool.domains] (workers spawned, at {!create}), [pool.tasks] and
    [pool.chunks] (per submission) and a [pool.run] span around each
    parallel join.

    If a task raises, the first exception (in chunk-claim order) is
    re-raised on the coordinating domain after the join. *)

type t

(** The trivial pool: every submission runs inline on the caller. *)
val inline : t

(** [create ~jobs ()] spawns [jobs - 1] worker domains (the submitting
    domain is the [jobs]-th participant).  [jobs <= 1] — or a system
    that refuses to spawn domains — yields an inline pool; oversubscribing
    [Domain.recommended_domain_count ()] is allowed (determinism does
    not depend on the physical core count, only throughput does). *)
val create : jobs:int -> unit -> t

(** Effective parallelism: [1] for an inline pool, [jobs] otherwise. *)
val jobs : t -> int

(** [true] iff submissions actually fan out to worker domains. *)
val is_parallel : t -> bool

(** [map_array ?chunk pool f arr] computes [Array.map f arr] with chunks
    of [chunk] consecutive indices (default: a balanced guess) claimed
    dynamically by all participants; the result is in index order. *)
val map_array : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array

(** List version of {!map_array} (same ordering guarantee). *)
val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list

(** Join and tear down the worker domains.  The pool degrades to inline
    execution afterwards; [shutdown] is idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] = [create], run [f], always [shutdown]. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** Parallelism requested by the environment: [CHASE_JOBS] if set to a
    positive integer, else [default] (itself defaulting to [1] — all
    entry points are sequential unless asked). *)
val default_jobs : ?default:int -> unit -> int
