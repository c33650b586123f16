(** Adaptive adversaries: strategy-driven message tampering layered on top
    of {!Faults}.

    {!Faults} models {e oblivious} failures — each message is dropped,
    duplicated or corrupted by an independent coin flip fixed in the plan.
    This module models the stronger adversary of the secured-algorithms
    literature: one that {e observes} every delivered message and {e adapts}
    its next actions to the traffic it has seen.  Three strategies:

    - [Byzantine nodes]: the listed nodes are compromised.  Every message
      they send may be substituted with a crafted payload — either a replay
      of an earlier message observed on the same link (well-formed, stale,
      maximally confusing to decoders) or a structural perturbation
      ({!Faults.corrupt_label});
    - [Link_sniper k]: a targeted-link corruption schedule.  At each round
      boundary the adversary picks the [k] links that carried the most
      traffic since the last boundary and corrupts messages crossing them
      in the coming round;
    - [Eavesdropper k]: records the payloads crossing every link (the
      observable image of each node's random bits) and targets the [k]
      links with the highest empirical payload entropy — the links whose
      traffic is most diverse, i.e. most likely to carry the random choices
      the Las-Vegas algorithms depend on.

    Determinism and budget are contractual, exactly as for {!Faults}: all
    randomness comes from a splitmix generator seeded by the plan, the
    adversary's choices are a pure function of the plan and the observed
    message sequence (which the executors produce deterministically), and
    every substitution or corruption spends one unit of the optional
    budget — an exhausted adversary observes but no longer acts.  Equal
    plans on equal executions therefore tamper identically, so adversarial
    runs are exactly reproducible (the Las-Vegas harness instantiates a
    fresh adversary per attempt).

    A {!plan} is a pure description; {!make} instantiates the stateful
    adversary threaded through one execution.  Instances must not be shared
    between runs (they carry the PRNG, the budget counter, the observation
    tables and the event log) — {!Run_ctx.adversary_instance} makes a fresh
    one per run. *)

type strategy =
  | Byzantine of int list  (** compromised nodes (senders), deduplicated *)
  | Link_sniper of int  (** corrupt the [k] busiest links of the last round *)
  | Eavesdropper of int  (** corrupt the [k] highest-entropy links *)

type plan = {
  seed : int;
  strength : float;
      (** probability an {e eligible} message (sent by a Byzantine node, or
          crossing a targeted link) is actually tampered with, in [0,1] *)
  strategy : strategy;
  budget : int option;  (** max tamperings; [None] = unlimited *)
}

(** [byzantine nodes ~strength ~seed] is a convenience constructor with an
    unlimited budget; likewise {!sniper} and {!eavesdropper}. *)
val byzantine : int list -> strength:float -> seed:int -> plan

val sniper : int -> strength:float -> seed:int -> plan
val eavesdropper : int -> strength:float -> seed:int -> plan

type event_kind =
  | Substituted of { src : int; dst : int }
      (** a Byzantine sender's payload was replaced *)
  | Corrupted of { src : int; dst : int }
      (** a targeted link's payload was perturbed *)
  | Targeted of { src : int; dst : int }
      (** the link entered the target set at this round boundary *)

type event = {
  round : int;
  kind : event_kind;
}

val pp_event : Format.formatter -> event -> unit

type t

(** [make plan] instantiates a fresh adversary.
    @raise Invalid_argument if [strength] is outside [0,1], a Byzantine
    node id is negative, a link count is negative, or the budget is
    negative. *)
val make : plan -> t

val plan : t -> plan

(** Tamperings (substitutions + corruptions) so far — what the budget
    meters. *)
val spent : t -> int

(** Messages observed so far (every delivered message, tampered or not). *)
val observed : t -> int

(** Actions taken, in round order (stable within a round). *)
val events : t -> event list

(** [tamper t ~src ~dst ~round payload] is the adversary's wire tap: it
    observes the (post-{!Faults}) delivered payload crossing [src -> dst]
    in [round] and returns the payload to actually deliver — the original,
    or a substituted/corrupted copy when the strategy elects to act and the
    budget allows.  The first call with a [round] beyond any seen so far is
    a round boundary: the adaptive strategies re-pick their target links
    from the traffic observed up to that point (so round-[r] targeting
    depends only on rounds [< r], in both executors). *)
val tamper :
  t -> src:int -> dst:int -> round:int -> Anonet_graph.Label.t ->
  Anonet_graph.Label.t

(** {2 The adversary-spec grammar}

    Comma-separated items (used by [anonet solve --adversary]); exactly one
    strategy item is required:

    {v
    byzantine=V1+V2+..  compromise the listed nodes
    sniper=K            target the K busiest links each round
    eavesdropper=K      target the K highest-entropy links each round
    strength=P          tamper probability per eligible message (default 1)
    seed=N              adversary PRNG seed                     (default 0)
    budget=K            tampering budget              (default unlimited)
    v}

    Example: ["eavesdropper=2,strength=0.5,seed=7,budget=40"]. *)

val plan_of_string : string -> (plan, string) result

(** [plan_to_string p] renders [p] in the grammar above;
    [plan_of_string (plan_to_string p)] re-reads it exactly. *)
val plan_to_string : plan -> string
