(** The run context: one record carrying every cross-cutting concern a run
    can be configured with, threaded through the runtime and search entry
    points as [?ctx] (defaulting to {!default}).

    Before this module, each concern was a separate optional argument
    ([?scramble_seed ?faults ?pool ...]) threaded inconsistently through
    [Executor], [Async], [Las_vegas], [Min_search], [A_infinity] and
    [Experiments]; every new concern multiplied signatures.  A [Run_ctx.t]
    is built once (typically by the CLI or the serve frontend) and passed
    down whole; the legacy labelled-argument shims are gone.

    The context is a pure description: it holds a fault {e plan}, not a
    stateful injector, so one context can be reused across runs and
    attempts — each run instantiates its own injector via {!injector}. *)

(** How an entry point that needs a round budget derives it from the graph
    size: [Scaled { per_node; slack }] gives [per_node * (n + slack)] —
    {!default} uses [64 * (n + 4)], the Las-Vegas default budget — while
    [Fixed r] is [r] regardless of the graph. *)
type max_rounds_policy =
  | Scaled of { per_node : int; slack : int }
  | Fixed of int

type t = {
  faults : Faults.plan option;  (** fault plan applied to (each) run *)
  adversary : Adversary.plan option;
      (** adaptive adversary layered on top of the faults (see {!Adversary}) *)
  pool : Anonet_parallel.Pool.t option;  (** domain pool for parallel paths *)
  obs : Anonet_obs.Obs.t;  (** metrics + event sink; [Obs.null] = off *)
  scramble_seed : int option;
      (** per-round inbox scrambling (see [Executor.run]) *)
  max_rounds_policy : max_rounds_policy;
}

val default : t
(** No faults, no pool, null observability, no scrambling,
    [Scaled { per_node = 64; slack = 4 }]. *)

val make :
  ?faults:Faults.plan ->
  ?adversary:Adversary.plan ->
  ?pool:Anonet_parallel.Pool.t ->
  ?obs:Anonet_obs.Obs.t ->
  ?scramble_seed:int ->
  ?max_rounds_policy:max_rounds_policy ->
  unit ->
  t

val obs : t -> Anonet_obs.Obs.t
val pool : t -> Anonet_parallel.Pool.t option
val faults : t -> Faults.plan option
val adversary : t -> Adversary.plan option

val parallel : t -> Anonet_parallel.Pool.t option
(** The pool, but only when it actually runs more than one domain — the
    guard every parallel path uses before choosing its sharded strategy
    over the sequential one. *)

val max_rounds : t -> n:int -> int
(** Apply {!max_rounds_policy} to an [n]-node graph. *)

val injector : t -> Faults.t option
(** A {e fresh} stateful injector for the context's fault plan.  Injectors
    must not be shared between runs; call this once per run. *)

val adversary_instance : t -> Adversary.t option
(** A {e fresh} stateful adversary for the context's adversary plan; same
    one-per-run contract as {!injector}. *)

val scramble_of_seed :
  int -> node:int -> degree:int -> round:int -> int array
(** The canonical scramble derivation (the seed mixing is pinned by
    regression tests). *)

val scramble :
  t -> (node:int -> degree:int -> round:int -> int array) option

val observe_faults : Anonet_obs.Obs.t -> Faults.t -> unit
(** Fold a (finished) injector's event log into the observability handle:
    one [faults.<kind>] counter increment and one ["fault"] event per
    injection, plus the [faults.spent] gauge.  Used by both executors after
    a run; a no-op on a null handle. *)

val observe_adversary : Anonet_obs.Obs.t -> Adversary.t -> unit
(** The adversary counterpart of {!observe_faults}: one
    [adversary.<kind>] counter increment and one ["adversary"] event per
    action (substituted / corrupted / targeted), plus the
    [adversary.spent] and [adversary.observed] gauges. *)
