(** The service pipeline: any dictionary (as closures), wrapped behind
    composable robustness policies.

    A {!call} runs the admission pipeline in order — deadline check
    (dead-on-arrival work is refused before it costs anything), load
    shedding ({!Shed}), circuit breaking ({!Breaker}) with explicit
    degraded modes ({!Degrade}) — and then executes the operation under
    a budget-governed retry loop ({!Retry}).  Every refusal is an
    explicit {!outcome}; nothing is silently dropped.

    All policy decisions are pure state machines over the injected
    {!Clock.t} and a SplitMix stream seeded from [config.seed]; the
    pipeline serializes policy transitions under one mutex, so on real
    domains the service is safe to share, and under the simulator
    (where every lane shares a domain and ticks are scheduler steps)
    the whole admit/reject/retry sequence is a pure function of the
    seed — the EXP-20 determinism test replays it. *)

type req = Insert of int * int | Delete of int | Find of int

type reject_reason =
  | Expired  (** dead on arrival (or while queued): never executed *)
  | Queue_full  (** shed: queue depth above the configured cap *)
  | Doomed  (** shed: deadline infeasible against the service-time estimate *)
  | Breaker_open  (** breaker open and no degraded mode applies *)
  | Write_degraded  (** read-only mode: writes refused while degraded *)

val reason_to_string : reject_reason -> string

type outcome =
  | Served of bool  (** executed; the dictionary's own result *)
  | Served_stale of bool * int
      (** served from a lagged replica after the owning shard refused or
          failed the read: [(found, lag_ticks)].  The pipeline itself
          never produces this — only the shard router's replica failover
          does — but it lives in [outcome] so the staleness contract is
          carried, never laundered, all the way to the wire. *)
  | Rejected of reject_reason  (** refused before any execution *)
  | Failed of string
      (** executed and gave up: retries/budget/deadline exhausted — the
          operation may or may not have taken effect (crash semantics,
          like PR 3's pending operations) *)

val outcome_to_string : outcome -> string

type ops = {
  insert : int -> int -> bool;
  delete : int -> bool;
  find : int -> bool;
}

type batched_ops = {
  insert_batch : (int * int) list -> bool list;
  delete_batch : int list -> bool list;
  find_batch : int list -> bool list;
}

type config = {
  clock : Clock.t;
  seed : int;  (** seeds the jitter stream *)
  deadline : int;  (** default per-call deadline, ticks; [max_int] = none *)
  retry : Retry.policy option;  (** [None] = never retry *)
  budget : Retry.Budget.config;
      (** always consulted by the retry loop ([Retry.Budget.unlimited]
          for the ablation), per the [no-unbounded-retry] lint *)
  breaker : Breaker.config option;
  shed : Shed.config option;
  degrade : Degrade.policy;
  coalesce_min : int;
      (** {!call_many} uses the batched path at this length or above *)
  retryable : exn -> bool;
      (** which execution exceptions may retry (injected so [lib/svc]
          never names [Lf_fault]; harnesses pass their classifier) *)
  backoff : int -> unit;
      (** performs the retry delay; default does nothing (the simulator
          must not spin a clock that only advances with scheduled
          steps) — real transports inject a waiter *)
  log_decisions : bool;  (** record the decision log (tests) *)
}

val config :
  ?seed:int ->
  ?deadline:int ->
  ?retry:Retry.policy option ->
  ?budget:Retry.Budget.config ->
  ?breaker:Breaker.config option ->
  ?shed:Shed.config option ->
  ?degrade:Degrade.policy ->
  ?coalesce_min:int ->
  ?retryable:(exn -> bool) ->
  ?backoff:(int -> unit) ->
  ?log_decisions:bool ->
  clock:Clock.t ->
  unit ->
  config
(** Defaults: no default deadline, no retry, unlimited budget, no
    breaker, no shedding, default degrade policy, [coalesce_min = 8],
    everything retryable, no-op backoff, no decision log. *)

type t

val create : ?batched:batched_ops -> config -> ops -> t
(** [batched] enables the {!Degrade.Coalesce} path in {!call_many}. *)

val call :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Deadline.t ->
  ?queue_depth:int ->
  req ->
  outcome
(** One request through the pipeline.  [deadline] defaults to
    [config.deadline] from now; [queue_depth] (for the shed stage)
    defaults to the service's in-flight count — transports with a real
    queue pass its length.  [ctx] (default {!Lf_obs.Span.nil}) is the
    request's trace context: when active, the pipeline opens one child
    span per decision (deadline, shed, breaker, degrade), one per
    attempt and retry wait, and registers the executing attempt so the
    recorder attributes failed C&S and structure-op spans into it. *)

val call_many :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Deadline.t ->
  ?queue_depth:int ->
  req list ->
  outcome list
(** Admission per element; admitted elements execute through the
    batched entry points when available and the batch is
    [coalesce_min]-long or the degrade mode is {!Degrade.Coalesce}
    (single-attempt, no retries), else one by one via {!call}.
    Results in input order. *)

val clock : t -> Clock.t
(** The pipeline's clock seam (layers above read ticks through it). *)

val mode : t -> Degrade.mode
(** Current degraded mode (from the breaker state; {!Degrade.Normal}
    without a breaker). *)

(** Aggregate counters since {!create}.  [retries = Retry.Budget.spent]:
    tokens spent and retries issued are the same number by
    construction. *)
type stats = {
  calls : int;
  served : int;  (** completed executions, degraded ones included *)
  served_ok : int;  (** of which returned [true] *)
  served_degraded : int;  (** served through a degraded mode *)
  failed : int;
  retries : int;
  budget_denied : int;  (** retries refused by the budget *)
  rejected : (string * int) list;  (** reason -> count, fixed order *)
  breaker : string option;
  mode : string;
  shed_estimate : int option;
  transitions : (int * string) list;
      (** breaker state changes, (tick, new state), oldest first *)
}

val stats : t -> stats

val decision_log : t -> string list
(** Oldest first; empty unless [config.log_decisions].  One line per
    admission verdict, retry, and completion — the determinism test's
    replay witness. *)
