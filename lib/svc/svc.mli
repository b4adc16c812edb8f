(** The service pipeline: any dictionary (as closures), wrapped behind
    composable robustness policies.

    A {!call_op} runs the admission pipeline in order — deadline check
    (dead-on-arrival work is refused before it costs anything), load
    shedding ({!Shed}), circuit breaking ({!Breaker}), read-only while
    the breaker is open (unless [config.read_only_when_open] is off) —
    and then executes the operation under a budget-governed retry loop
    ({!Retry}).  Every refusal is an explicit {!outcome}; nothing is
    silently dropped.

    Every policy decision is a function of the injected {!Clock.t}'s
    reads and a SplitMix stream seeded from [config.seed].  The policy
    states ({!Breaker.t}, {!Shed.t}, {!Retry.Budget.t}) are created with
    the service and updated in place under its one mutex, which
    serializes every decision: on real domains the service is safe to
    share, a served call allocates nothing in the pipeline, and under
    the simulator (where every lane shares a domain and ticks are
    scheduler steps) the whole admit/reject/retry sequence is a pure
    function of the seed — the EXP-20 determinism test replays it. *)

type req = Insert of int * int | Delete of int | Find of int

type reject_reason =
  | Expired  (** dead on arrival (or while queued): never executed *)
  | Queue_full  (** shed: queue depth above the configured cap *)
  | Doomed  (** shed: deadline infeasible against the service-time estimate *)
  | Breaker_open  (** breaker open and read-only mode is off *)
  | Write_degraded  (** read-only mode: writes refused while open *)

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

(** A reusable batch of requests and their outcomes, one per connection:
    entry [i < len] runs [ops.(i)] on [keys.(i)] ([vals.(i)] is an
    insert's value), and [Lf_shard.Router.call_batch] writes its outcome
    to [outcomes.(i)] and the shard it ran on to [shards.(i)].  Filling
    and running a batch allocates nothing. *)
type batch = {
  ops : Lf_obs.Obs_event.op array;
  keys : int array;
  vals : int array;
  shards : int array;
  outcomes : outcome array;
  mutable len : int;
}

val batch : int -> batch
(** An empty batch with room for [n] entries. *)

val batch_of_reqs : req list -> batch
(** A full batch of exactly these requests, in order. *)

val batch_req : batch -> int -> req
(** Entry [i] as a boxed request. *)

type ops = {
  insert : int -> int -> bool;
  delete : int -> bool;
  find : int -> bool;
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
  read_only_when_open : bool;
      (** while the breaker is open, serve reads (single attempt) and
          reject writes as [Write_degraded]; [false] rejects everything
          as [Breaker_open].  Half-open probes always run on the
          primary. *)
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
  ?read_only_when_open:bool ->
  ?retryable:(exn -> bool) ->
  ?backoff:(int -> unit) ->
  ?log_decisions:bool ->
  clock:Clock.t ->
  unit ->
  config
(** Defaults: no default deadline, no retry, unlimited budget, no
    breaker, no shedding, read-only while open, everything retryable,
    no-op backoff, no decision log. *)

type t

val create : config -> ops -> t

val call_op :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Deadline.t ->
  ?queue_depth:int ->
  Lf_obs.Obs_event.op ->
  int ->
  int ->
  outcome
(** [call_op t op key value] runs one request through the pipeline:
    [Insert] of [key] with [value], or [Delete] or [Find] of [key]
    ([value] ignored).  Untraced and with the decision log off, a call
    that is served or rejected allocates nothing.  [deadline] defaults
    to [config.deadline] after the admission tick, the call's first
    clock read (every attempt reads the clock afresh); [queue_depth] (for the
    shed stage) defaults to the service's in-flight count — transports
    with a real queue pass its length.  [ctx] (default
    {!Lf_obs.Span.nil}) is the request's trace context: when active, the
    pipeline opens one child span per decision (deadline, shed, breaker,
    degrade), one per attempt and retry wait.  Each attempt span carries an
    {!Lf_obs.Span.Op} event naming the backend operation and key; a
    failed C&S reported through [Trace_mem] during the backend call
    lands in it, as the innermost request span open on the lane.
    @raise Invalid_argument on [Other], which names no request. *)

val call :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Deadline.t ->
  ?queue_depth:int ->
  req ->
  outcome
(** {!call_op} on a boxed request: a wrapper for callers that hold one. *)

val call_many :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Deadline.t ->
  ?queue_depth:int ->
  req list ->
  outcome list
(** {!call} on each element, in input order. *)

val clock : t -> Clock.t
(** The pipeline's clock seam (layers above read ticks through it). *)

(** Aggregate counters since {!create}.  [retries = Retry.Budget.spent]:
    tokens spent and retries issued are the same number by
    construction. *)
type stats = {
  calls : int;
  served : int;  (** completed executions, degraded ones included *)
  served_ok : int;  (** of which returned [true] *)
  served_degraded : int;  (** reads served while read-only *)
  failed : int;
  retries : int;
  budget_denied : int;  (** retries refused by the budget *)
  rejected : (string * int) list;  (** reason -> count, fixed order *)
  breaker : string option;
  mode : string;  (** ["read-only"] while read-only, else ["normal"] *)
  shed_estimate : int option;
  transitions : (int * string) list;
      (** the 64 most recent breaker state changes, (tick, new state),
          oldest first *)
}

val stats : t -> stats

val decision_log : t -> string list
(** Oldest first; empty unless [config.log_decisions].  One line per
    admission verdict, retry, and completion — the determinism test's
    replay witness. *)
