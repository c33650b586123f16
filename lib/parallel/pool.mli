(** A small work-distributing domain pool for the embarrassingly parallel
    workloads of the derandomization: chunks of a round-major search
    frontier and independent graph-family experiment rows.

    The pool owns [domains - 1] worker domains (the caller of {!map} or
    {!run} is always the remaining worker, so a pool of size
    [d] computes on [d] domains).  Work items are indexed [0 .. n-1] and
    distributed dynamically — each participant repeatedly claims the next
    unclaimed index — so uneven item costs balance automatically.  Results
    are merged in {e index order}, never in completion order: every
    combinator is deterministic given deterministic tasks.

    Sequential fallback: a pool created with [~domains:1] (or without
    [~domains] on a machine where [Domain.recommended_domain_count () = 1])
    spawns no domains at all; every combinator then degenerates to a plain
    in-order loop.  Callers can thread [?pool] unconditionally and let the
    pool decide.

    Pools are not reentrant: do not call {!run} or {!map} from inside a
    task of the same pool. *)

type t

(** [create ~domains ()] spawns [domains - 1] worker domains.  [domains]
    defaults to [Domain.recommended_domain_count ()]; an explicit value is
    honored even beyond the core count (useful for testing the parallel
    paths and for oversubscription experiments).

    [obs], when live, gives the pool a [pool.tasks] counter and
    [pool.task.run_ns] / [pool.task.wait_ns] histograms (wait = time from
    job post to claim, recorded only on the parallel path where queueing
    exists).  An uninstrumented pool pays one branch per handle per task.
    @raise Invalid_argument if [domains < 1]. *)
val create : ?obs:Anonet_obs.Obs.t -> ?domains:int -> unit -> t

(** Number of domains the pool computes on (workers + caller), [>= 1]. *)
val domains : t -> int

(** [shutdown t] joins the worker domains.  Idempotent.  Using the pool
    after shutdown raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ~domains f] runs [f] on a fresh pool and always shuts it
    down, including on exceptions. *)
val with_pool : ?obs:Anonet_obs.Obs.t -> ?domains:int -> (t -> 'a) -> 'a

(** [run t ~n body] executes [body i] for every [i] in [0 .. n-1], in
    parallel across the pool's domains.  Every index is executed exactly
    once.  If some [body i] raises, the remaining unclaimed indices are
    skipped (claimed but not run) and the first recorded exception is
    re-raised in the caller once all participants have drained. *)
val run : t -> n:int -> (int -> unit) -> unit

(** [map t f arr] is [Array.map f arr] computed in parallel.  The result
    array is in input order ([(map t f arr).(i) = f arr.(i)]) — the
    deterministic reduction order downstream merges rely on. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array
