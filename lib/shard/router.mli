(** Consistent-hash shard router: N dictionary shards, each behind its
    own [lib/svc] breaker/shed/degrade pipeline, so one hot, stalled or
    faulted shard degrades only its own keyspace.

    - {!call_op} routes a request by key and runs it through that
      shard's pipeline; everything else is untouched (blast-radius containment,
      EXP-23).
    - Hedged/failover reads: when a {e read} comes back rejected by a
      tripped shard (breaker open, queue full, doomed) or fails in
      execution, the router retries it directly against that shard's
      backend, outside the pipeline.  This is safe precisely because
      the underlying structures' searches are non-blocking and
      side-effect-free — the paper's wait-free search is the failover
      path.  Writes are never hedged.
    - {!call_batch} scatter-gathers a multi-key batch across shards and
      writes per-key outcomes in input order — a shard that sheds or
      trips yields per-key rejections, never one collapsed error and
      never a silently dropped key.
    - {!rebalance} migrates one slot's keys to another shard under
      load without violating per-key linearizability: a watermark
      splits routing during the handoff, the walk visits the keys the
      source actually holds (its successor query), and the watermark
      passes a range of the slot only while no operation on a key of
      that range is in flight (per-key inflight accounting under the
      router mutex).

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
  ?next_key:(int -> int -> int option) ->
  ring:Hash_ring.t ->
  svc_config:(int -> Svc.config) ->
  (int -> backend) ->
  t
(** [create ~ring ~svc_config mk_backend] builds one shard per ring
    slot: shard [i] wraps [mk_backend i] in a pipeline configured by
    [svc_config i].  [hedge_reads] (default [true]) enables the
    failover read path.

    [next_key shard k] is the smallest key [>= k] that shard [shard]'s
    backend holds ([None] past its last key).  It runs under the router
    mutex, concurrently with operations on other keys, and raises the
    way the shard's backend does when the shard is down.  It is what
    {!rebalance} and {!promote} walk, and each backend has exactly one
    correct answer (for the paper's structures, SEARCHFROM's
    [find_ge]).  A router built without it serves every call but
    cannot migrate. *)

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

val call_op :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Lf_svc.Deadline.t ->
  ?queue_depth:int ->
  Lf_obs.Obs_event.op ->
  int ->
  int ->
  Svc.outcome
(** [call_op t op key value]: route by key, run through that shard's
    pipeline ({!Svc.call_op}), hedging rejected or failed reads when
    enabled.  [ctx] (default {!Lf_obs.Span.nil}) is the request's trace
    context: when active, the router opens one fan-out span per shard
    touched ([shard<i>]) with the pipeline's decision spans nested
    inside, plus a [hedge] span (with its outcome event) when the
    failover path runs.  A served call allocates nothing in the router
    or the pipeline. *)

val call_batch :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Lf_svc.Deadline.t ->
  ?queue_depth:int ->
  Svc.batch ->
  unit
(** Scatter-gather over the batch's [len] entries: route and mark every
    key under one router lock, run each shard's keys through its
    pipeline in input order, write each entry's outcome to its slot of
    [outcomes] (input order), and unmark every key under one lock.  A
    served batch allocates nothing in the router or the pipelines. *)

val call :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Lf_svc.Deadline.t ->
  ?queue_depth:int ->
  Svc.req ->
  Svc.outcome
(** {!call_op} on a boxed request: a wrapper for callers that hold one. *)

val call_many :
  t ->
  ?ctx:Lf_obs.Span.ctx ->
  ?deadline:Lf_svc.Deadline.t ->
  ?queue_depth:int ->
  Svc.req list ->
  Svc.outcome list
(** {!call_batch} on a list of boxed requests, through a batch built
    for the call: a wrapper for callers that hold a list.  The result
    has exactly one outcome per request, in input order. *)

val in_flight : t -> int
(** Keys with at least one operation in flight (read-only; 0 whenever
    no call is running). *)

val rebalance : t -> slot:int -> to_:int -> int
(** [rebalance t ~slot ~to_] hands [slot]'s keys to shard [to_]: it
    walks the keys the source holds, in ascending order from the
    watermark, with the source's [next_key].  Each step runs under the
    router mutex: it drains every in-flight key of the slot between the
    watermark and the next key, re-reads the cursor, copies that key if
    it belongs to the slot and sets the watermark past it.  The final
    ownership flip drains the keys above the watermark the same way.
    So the watermark routes every key to exactly one owner at every
    instant and never passes a key with an operation in flight —
    operations racing the handoff stay linearizable per key, and every
    key present on the source moves, [min_int] and [max_int] included.
    A heal takes one step per key the source holds.  Copies run on the
    caller's lane through the raw backends (control plane: they bypass
    the pipelines, so a tripped breaker cannot strand keys).  Returns
    the number of keys moved.  When tracing is on, the migration runs under
    its own [rebalance] root span with a [drain] child span (carrying
    the key) for every in-flight key it had to wait for.

    A cursor read or copy that keeps failing (four attempts) {e aborts}
    the migration: the exception propagates, a terminal [abort] line
    lands in the journal (so stuck is distinguishable from done), and
    the watermark record is {e kept} — keys below it already live on
    [to_] and stay routed there.  Calling [rebalance] again with the
    same [slot] and target, or {!promote} with the same [slot], resumes
    the walk from the watermark; a different slot or target while the
    aborted record stands is an error.
    @raise Invalid_argument without [next_key] (see {!create}), if a
    migration is already running (and not resumable by these
    arguments), or on out-of-range arguments. *)

val promote : t -> slot:int -> int
(** [promote t ~slot] makes [slot]'s replica authoritative on its host
    shard: drains the replica's apply journal (the promotion barrier),
    then migrates the slot to the host with the same walk as
    {!rebalance} — except that the cursor and the values come from the
    primary while it answers (an alive-but-sick primary is fresher than
    any replica) and from the replica's copy ({!Replica.next_key},
    {!Replica.peek}) once it throws, and the source delete is
    best-effort (a dead primary cannot honour it).  An aborted
    migration of [slot] is taken over: the walk resumes from its
    watermark to that record's target, whatever shard hosts the
    replica.  On completion the slot's replica is retired.  Returns
    keys moved.  This is how the supervisor evacuates a {e dead} shard,
    or finishes a rebalance whose source died mid-walk, which
    [rebalance] alone cannot (its walk would need the corpse to
    answer).
    @raise Invalid_argument without [next_key], without replicas, if
    the slot is not replicated, or if a migration of another slot is
    running. *)

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
