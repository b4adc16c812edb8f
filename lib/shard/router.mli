(** Consistent-hash shard router: N dictionary shards, each behind its
    own [lib/svc] breaker/shed/degrade pipeline, so one hot, stalled or
    faulted shard degrades only its own keyspace.

    - {!call} routes a request by key and runs it through that shard's
      pipeline; everything else is untouched (blast-radius containment,
      EXP-23).
    - Hedged/failover reads: when a {e read} comes back rejected by a
      tripped shard (breaker open, queue full, doomed) or fails in
      execution, the router retries it directly against that shard's
      backend, outside the pipeline.  This is safe precisely because
      the underlying structures' searches are non-blocking and
      side-effect-free — the paper's wait-free search is the failover
      path.  Writes are never hedged.
    - {!call_many} scatter-gathers a multi-key batch across shards and
      returns per-key outcomes in input order — a shard that sheds or
      trips yields per-key rejections, never one collapsed error and
      never a silently dropped key.
    - {!rebalance} migrates one slot's keyspace to another shard under
      load without violating per-key linearizability: a watermark
      splits routing during the handoff, and each key is copied only
      while no operation on that key is in flight (per-key inflight
      accounting under the router mutex).

    The router itself holds no dictionary state: shards arrive as
    backend closures, so any [DICT] over any [Mem.S] works, and
    harnesses can stack fault-injecting memories per shard. *)

module Svc := Lf_svc.Svc

type backend = {
  insert : int -> int -> bool;
  delete : int -> bool;
  find : int -> int option;
  batched : unit option;
      (** ignored; kept only so existing backend records still build *)
}

type t

val create :
  ?hedge_reads:bool ->
  ring:Hash_ring.t ->
  svc_config:(int -> Svc.config) ->
  (int -> backend) ->
  t
(** [create ~ring ~svc_config mk_backend] builds one shard per ring
    slot: shard [i] wraps [mk_backend i] in a pipeline configured by
    [svc_config i].  [hedge_reads] (default [true]) enables the
    failover read path. *)

val attach_replicas : t -> Replica.t -> unit
(** Wire a replica set into the router: successful writes to
    replicated slots are journaled for async apply, and a hedged read
    whose backend is dead (throws, not merely tripped) falls back to
    the slot's replica — always as [Svc.Served_stale (found, lag)],
    never a silent fresh answer.  The staleness contract: replica data
    is explicitly lag-tagged end to end. *)

val replicas : t -> Replica.t option

val ring : t -> Hash_ring.t

val clock : t -> Lf_svc.Clock.t
(** Shard 0's pipeline clock — the tick base for spans, journal lines
    and replica lag. *)

val route : t -> int -> int
(** The shard a key's operations go to right now — assignment plus the
    migration watermark while a rebalance is running. *)

val call :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Lf_svc.Deadline.t ->
  ?queue_depth:int ->
  Svc.req ->
  Svc.outcome
(** Route by key, run through that shard's pipeline, hedging rejected
    or failed reads when enabled.  [ctx] (default {!Lf_obs.Span.nil})
    is the request's trace context: when active, the router opens one
    fan-out span per shard touched ([shard<i>]) with the pipeline's
    decision spans nested inside, plus a [hedge] span (with its
    outcome event) when the failover path runs. *)

val call_many :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Lf_svc.Deadline.t ->
  ?queue_depth:int ->
  Svc.req list ->
  Svc.outcome list
(** Scatter-gather: route and mark every key under one router lock,
    run each shard's keys through its pipeline in input order, gather
    per-key outcomes back into input order, and unmark every key under
    one lock.  The result has exactly one outcome per request. *)

val in_flight : t -> int
(** Keys with at least one operation in flight (read-only; 0 whenever
    no {!call} or {!call_many} is running). *)

val rebalance : t -> slot:int -> to_:int -> key_range:int -> int
(** [rebalance t ~slot ~to_ ~key_range] hands [slot]'s keyspace to
    shard [to_], migrating every key in [[0, key_range)] that hashes to
    the slot.  Keys are copied one at a time under the router mutex,
    each only once its in-flight count drains, and the watermark routes
    every key to exactly one owner at every instant — operations racing
    the handoff stay linearizable per key.  Copies run on the caller's
    lane through the raw backends (control plane: they bypass the
    pipelines, so a tripped breaker cannot strand keys).  Returns the
    number of keys moved.  When tracing is on, the migration runs under
    its own [rebalance] root span with a [drain] child span (carrying
    the key) for every key that had to wait for in-flight operations.

    A copy that keeps failing (four attempts) {e aborts} the migration:
    the exception propagates, a terminal [abort] line lands in the
    journal (so stuck is distinguishable from done), and the watermark
    record is {e kept} — keys below it already live on [to_] and stay
    routed there.  Calling [rebalance] (or [promote]) again with the
    same [slot] and target resumes the scan from the watermark; a
    different slot or target while the aborted record stands is an
    error.
    @raise Invalid_argument if a migration is already running (and not
    resumable by these arguments), or on out-of-range arguments. *)

val promote : t -> slot:int -> key_range:int -> int
(** [promote t ~slot ~key_range] makes [slot]'s replica authoritative
    on its host shard: drains the replica's apply journal (the
    promotion barrier), then migrates the slot to the host with the
    same watermark/drain machinery as {!rebalance} — except the value
    copied comes from the primary when it still answers (an
    alive-but-sick primary is fresher than any replica) and from the
    replica copy when the primary throws, and the source delete is
    best-effort (a dead primary cannot honour it).  On completion the
    slot's replica is retired.  Returns keys moved.  This is how the
    supervisor evacuates a {e dead} shard, which [rebalance] alone
    cannot (its copy would need the corpse to answer reads).
    @raise Invalid_argument without replicas, if the slot is not
    replicated, or if a non-resumable migration is running. *)

val stats : t -> Svc.stats array
(** Per-shard pipeline stats, index = shard id. *)

val hedged : t -> int array
(** Per-shard count of reads served (or attempted) via the failover
    path. *)

val hedge_stats : t -> (int * int) array
(** Per-shard [(attempts, wins)] for the failover read path: attempts
    counts every hedge issued, wins those that served the read (the
    backend answered, found or not). *)

val migrated_keys : t -> int
(** Total keys moved by completed rebalances. *)

val rebalances : t -> int

val drained_keys : t -> int
(** Keys whose migration had to wait for in-flight operations to
    drain, across all completed rebalances. *)

val aborts : t -> int
(** Migrations that died mid-drain and journaled an [abort] record. *)

val promotions : t -> int
(** Replica promotions completed. *)

val stale_reads : t -> int
(** Reads served from a replica — every one of them returned as
    [Svc.Served_stale]; this counter equalling the wire's stale-token
    count is the no-silent-staleness oracle. *)

type migration_status = {
  ms_slot : int;
  ms_from : int;
  ms_to : int;
  ms_watermark : int;
  ms_aborted : bool;  (** terminal-abort record awaiting a resume *)
}

val migration_status : t -> migration_status option
(** The in-flight (or aborted-and-resumable) migration, if any — how
    the supervisor distinguishes idle from running from stuck. *)

val slots_of_shard : t -> int array
(** Slots currently assigned per shard (an in-flight migration counts
    for its destination).  A shard at [0] is fully evacuated. *)

val journal : unit -> string list
(** The router's process-wide decision journal (rebalance begin/end
    lines), oldest first, bounded.  Every entry is stamped
    [#<seq> t=<tick>] — a process-wide monotonic sequence number plus
    the router clock's tick — so journal lines join against span dumps.
    Deliberately module-level — see the [no-cross-shard-state] lint
    waiver. *)
