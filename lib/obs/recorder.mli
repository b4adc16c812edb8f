(** The observability recorder: module-level state observed through
    {!Trace_mem}, recorded into per-domain structures (the [Counting_mem]
    DLS-plus-registry pattern) so the hot path never synchronizes, and
    merged at quiescence.

    Levels nest — each adds to the previous:
    - [Off]: every entry point returns after one word read; no allocation.
    - [Counters]: C&S and cost-model tallies, finished-operation counts.
      Recorder state is touched once per C&S / event / operation — never
      per read — which is what keeps this level within a few percent of
      off even on pointer-chasing searches (EXP-19 part A).
    - [Histograms]: read/write tallies, operation-span latencies,
      C&S-failure attribution to protocol phase and key.
    - [Tracing]: the timestamped event stream, in bounded per-domain rings
      (oldest overwritten, drops counted), and request spans: the level
      is the one observability switch, and {!Span} opens spans only at
      [Tracing].  Their records go into the same rings, so one ring per
      domain holds every observation and {!Span.trees} is a view built
      from {!rings}.

    Configure ({!set_level}, {!set_clock}, {!set_ring_capacity}) before
    spawning worker domains; collect ({!tallies}, {!latencies}, {!events},
    {!profile_report}) after joining them. *)

type level = Off | Counters | Histograms | Tracing

val set_level : level -> unit
val level : unit -> level
val level_to_string : level -> string

(** The recorder stamps events and times spans on the one {!Clock};
    [Real] by default. *)
type clock = Clock.t = Real | Sim_steps | Manual of (unit -> int)

val set_clock : clock -> unit

val set_ring_capacity : int -> unit
(** Capacity of per-domain event rings created afterwards (default 65536);
    {!reset} re-creates existing rings at the current capacity.
    @raise Invalid_argument if not positive. *)

val reset : unit -> unit
(** Clear every registered domain's tallies, histograms, profile, ring,
    request-span id counter and exemplars — so also every request tree.
    The one reset; call at quiescence between measured runs. *)

(** {1 Hot path} — called by {!Trace_mem} and the harnesses *)

val on_read : unit -> unit
val on_write : unit -> unit
val on_cas : Lf_kernel.Mem_event.cas_kind -> bool -> unit
val on_event : Lf_kernel.Mem_event.t -> unit

val span_begin : op:Obs_event.op -> key:int -> unit
(** Open an operation span for the current lane (overwrites any span the
    lane left open).  No-op below [Histograms]. *)

val span_end : op:Obs_event.op -> ok:bool -> unit
(** Close the current lane's span: counts the operation, records its
    latency into the per-op histogram. *)

(** {1 Request spans} — called by {!Span} once a context is live; none
    of these reads the level *)

val span_id : unit -> int
(** A fresh request-span id, [(domain lsl 40) lor n] with a per-domain
    [n] that restarts at {!reset}: a single-domain run allocates the
    same ids in every execution. *)

val push_request : now:int -> Obs_event.kind -> unit
(** Append a request-span event ([Req_begin], [Req_end] or [Req_event])
    to the current domain's ring, stamped [now] — the caller's tick. *)

val complete_request : trace:int -> latency:int -> tick:int -> unit
(** Count one completed request into the exemplar buckets and the
    latency totals. *)

(** {1 Collection} — merge the per-domain states; quiescence only *)

val tallies : unit -> Lf_kernel.Counters.t
val ops_counts : unit -> (Obs_event.op * int) list
val latency : Obs_event.op -> Hist.t
val latencies : unit -> (Obs_event.op * Hist.t) list
val profile_report : ?top:int -> unit -> Profile.report

val events : unit -> Obs_event.t list
(** Every retained event, merged across domains and sorted by
    [(ts, dom, seq)] — a deterministic total order under the simulator
    clock.  Request-span events sort by the caller's tick. *)

val rings : unit -> Obs_event.t list list
(** Each domain's retained events in ring (sequence) order, domains
    ordered by id. *)

val event_count : unit -> int
val dropped : unit -> int
(** Events lost to ring overwrites since the last {!reset}. *)

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
    the trace id of its worst recent request.  Domains merge like the
    histograms: counts add, the worst latency wins, and a tie goes to
    the later tick. *)

val latency_totals : unit -> int * int
(** [(sum, count)] of completed-request latencies — the histogram's
    [_sum] / [_count] pair. *)
