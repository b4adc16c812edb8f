(** Request-scoped causal tracing: span trees with explicit context
    propagation.

    A {e span} is a named interval of one request's journey through the
    serve → router → shard pipeline (an admission decision, a retry
    attempt, a hedge, a shard fan-out), carrying typed events.  Spans
    form a tree per request rooted at the span {!root} creates; the
    tree's trace id is the root's span id.  Context is propagated
    {e explicitly}: the serve layer creates a root {!ctx}, threads it
    through [Svc.call ?ctx] / [Router.call ?ctx], and each layer opens
    children with {!begin_} — there is no ambient request context.

    [Span] keeps no state.  A context is an immutable handle, and
    {!root}, {!begin_}, {!end_} and {!event} append one record each to
    the recorder's per-domain ring, stamped with the caller's tick, next
    to the recorder's own C&S and cost-model events.  {!trees} rebuilds
    the completed trees from those rings, so [Recorder.reset] is the one
    reset.  A failed C&S lands, as a {!Cas_fail} event, in the innermost
    request span open on its lane when it happened: the attempt during a
    pipeline call, the hedge during a failover read, the rebalance root
    during a migration copy.  The structures never learn about requests.

    There is one switch: {!Recorder.level}.  Spans open only at
    [Recorder.Tracing]; below it {!root} returns {!nil}, and every other
    entry point, handed {!nil}, returns at once — no domain-local
    lookup, no allocation (test_trace's "off level allocates nothing"
    checks it; exp24 part A prices it).  Ticks come from the one
    {!Clock}: request spans carry the caller's ticks (the service
    layer's clock), and C&S failures the recorder's.  Under a
    [Sim_steps] or [Manual] clock a run's span dump is byte-identical
    across executions.  Closing a root also feeds
    [Recorder.exemplars]. *)

(** Typed span events, re-exported from {!Obs_event.span_event}. *)
type event = Obs_event.span_event =
  | Deadline_check of bool
  | Shed_verdict of string
  | Breaker_verdict of string
  | Degrade_mode of string
  | Retry_wait of { attempt : int; delay : int }
  | Budget_denied
  | Hedge_outcome of string
  | Drain_wait of int
  | Op of Obs_event.op * int
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
  mutable s_end : int;
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
(** Close the span.  Closing a root completes its tree, and its latency
    enters the recorder's exemplars.  Every [begin_] must be paired
    with an [end_] on all exits (the [no-orphan-span] lint). *)

val event : ctx -> now:int -> event -> unit

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
(** The completed trees the recorder's rings still hold, sorted by
    trace id; meaningful at quiescence.  Retention: a tree is kept while
    its root's begin and end records are both in the rings and the root
    is among the 256 most recently completed on the domain that closed
    it; once the root's begin is overwritten the whole trace is dropped,
    as a root that never completes is.  A tree holds the spans whose
    begin and end records are both retained. *)

val find_trace : int -> tree option
