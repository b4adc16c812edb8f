(** Request-scoped causal tracing: span trees with explicit context
    propagation.

    A {e span} is a named interval of one request's journey through the
    serve → router → shard pipeline (an admission decision, a retry
    attempt, a hedge, a shard fan-out), carrying typed events.  Spans
    form a tree per request rooted at the span {!root} creates; the
    tree's trace id is the root's span id.  Context is propagated
    {e explicitly}: the serve layer creates a root {!ctx}, threads it
    through [Svc.call ?ctx] / [Router.call ?ctx], and each layer opens
    children with {!begin_} — there is no ambient request context.  The
    one implicit hop is C&S-failure attribution: {!with_current}
    registers the executing attempt for the current lane, so
    [Trace_mem]'s C&S hook can land {!note_cas_fail} events inside the
    owning attempt without the structures knowing about requests.

    There is one switch: {!Recorder.level}.  Trees build only at
    [Recorder.Tracing]; below it {!root} returns {!nil}, and every other
    entry point, handed {!nil}, returns at once — no domain-local
    lookup, no allocation (test_trace's "off level allocates nothing"
    checks it; exp24 part A prices it).  Ticks come from whatever clock
    the caller reads — the [Clock] seam in the service layer, the
    recorder clock for C&S failures — so under the simulator or a
    manual clock a run's span dump is byte-identical across
    executions.

    Completed trees feed two consumers: a bounded per-domain flight ring
    ({!trees}, dumped by [Flight] on anomalies) and the tail-based
    exemplar table ({!exemplars}: per latency bucket, the trace id of
    the worst recent request — exported as Prometheus exemplars on
    [lf_latency]). *)

(** Typed span events: the pipeline-decision vocabulary. *)
type event =
  | Deadline_check of bool  (** [true] = expired *)
  | Shed_verdict of string
  | Breaker_verdict of string
  | Degrade_mode of string
  | Retry_wait of { attempt : int; delay : int }
  | Budget_denied
  | Hedge_outcome of string
  | Drain_wait of int  (** rebalance waited for this key's inflight ops *)
  | Op of Obs_event.op * int
      (** the backend operation and key an attempt runs, ["insert 7"] *)
  | Cas_fail of Lf_kernel.Mem_event.cas_kind
  | Note of string

val event_strings : event -> string * string
(** [(kind, argument)] rendering used by dumps; stable. *)

type span = private {
  s_trace : int;
  s_id : int;
  s_parent : int;  (** 0 for the root *)
  s_name : string;
  s_begin : int;
  mutable s_end : int;  (** -1 while open *)
  mutable s_ok : bool;
  mutable s_events : (int * event) list;  (** newest first *)
}

type tree

type ctx
(** A handle to an open span, or {!nil} when not tracing.  Values are
    immutable; propagation is by argument passing. *)

val nil : ctx
(** The inert context: every operation on it is a no-op.  [?ctx]
    parameters default to it, which is what keeps the off path
    allocation-free. *)

val active : ctx -> bool
(** [false] only for {!nil}: guard event-payload construction with this
    so the off path allocates nothing. *)

val trace_id : ctx -> int
(** The owning trace id; 0 unless the context carries a materialized
    span. *)

val root : name:string -> now:int -> ctx
(** Open a new trace (one per request).  Returns {!nil} unless the
    recorder is at [Tracing]. *)

val begin_ : ctx -> name:string -> now:int -> ctx
(** Open a child span under [ctx].  On {!nil}, returns {!nil}. *)

val end_ : ctx -> now:int -> ok:bool -> unit
(** Close the span.  Closing a root completes its tree: the tree enters
    the flight ring and its root latency the exemplar table.  Every
    [begin_] must be paired with an [end_] on all exits (the
    [no-orphan-span] lint). *)

val event : ctx -> now:int -> event -> unit

val with_current : ctx -> (unit -> 'a) -> 'a
(** Run [f] with [ctx] registered as the current lane's executing span,
    restoring the previous registration on all exits — the attribution
    seam {!note_cas_fail} uses.  On {!nil}, just [f ()]. *)

val note_cas_fail : Lf_kernel.Mem_event.cas_kind -> unit
(** Attribute one failed C&S to the current lane's span, if any, stamped
    with {!Recorder.now}.  Returns at once below [Tracing]. *)

(** {1 Trees (collection at quiescence)} *)

val tree_trace : tree -> int
val tree_root : tree -> span

val tree_spans : tree -> span list
(** Root first, then completed descendants sorted by [(s_begin, s_id)] —
    a deterministic order. *)

val span_events : span -> (int * event) list
(** Oldest first. *)

val dominant_phase : tree -> string
(** The span name with the largest summed {e self} time (duration minus
    direct children) over the tree's completed non-root spans; the
    root's name if there are none.  Ties break lexicographically. *)

val well_formed : tree -> (unit, string) result
(** Checks the causal-tree discipline: unique span ids, every non-root
    span's parent present, children open after their parent opens and
    close before it closes, no span from a foreign trace. *)

val trees : unit -> tree list
(** Completed trees retained in the per-domain flight rings, sorted by
    trace id.  Meaningful at quiescence. *)

val find_trace : int -> tree option

type counts = {
  roots : int;
  spans : int;  (** non-root spans opened *)
  events : int;
  completed : int;  (** trees completed *)
  cas_attributed : int;  (** failed C&S landed in attempt spans *)
}

val counts : unit -> counts

val reset : unit -> unit
(** Clear every domain's rings, tallies, registrations and id counters,
    and the exemplar table.  Callers must be quiescent. *)

(** {1 Tail-based exemplars} *)

type exemplar = {
  ex_le : int;  (** inclusive upper latency bound of the bucket *)
  ex_count : int;  (** completed requests that landed in the bucket *)
  ex_trace : int;  (** trace id of the worst recent request in it *)
  ex_latency : int;
  ex_tick : int;  (** completion tick of that request *)
}

val exemplars : unit -> exemplar list
(** Non-empty latency buckets in ascending bound order, each carrying
    the trace id of its worst recent request. *)

val latency_totals : unit -> int * int
(** [(sum, count)] of completed-root latencies — the histogram's
    [_sum] / [_count] pair. *)
