(** Vocabulary of the observability layer: the timestamped, lane-attributed
    events the per-domain ring buffers record — C&S attempts with outcomes
    (by Section 3.4 kind), the cost-model annotations structures emit
    through [Mem.S.event], harness operation-span markers, and request
    spans.  Plain reads and writes are tallied, not ringed (volume without
    protocol information). *)

type op = Insert | Delete | Find | Other

val op_to_string : op -> string

val op_index : op -> int
(** Dense index in [\[0, op_count)], for per-op histogram arrays. *)

val op_count : int

val ops : op list
(** Every [op], in [op_index] order. *)

(** A request span's typed events: the pipeline-decision vocabulary,
    re-exported as [Span.event]. *)
type span_event =
  | Deadline_check of bool  (** [true] = expired *)
  | Shed_verdict of string
  | Breaker_verdict of string
  | Degrade_mode of string
  | Retry_wait of { attempt : int; delay : int }
  | Budget_denied
  | Hedge_outcome of string
  | Drain_wait of int  (** rebalance waited for this key's inflight ops *)
  | Op of op * int
      (** the backend operation and key an attempt runs, ["insert 7"] *)
  | Cas_fail of Lf_kernel.Mem_event.cas_kind
  | Note of string

type kind =
  | Cas of { cas : Lf_kernel.Mem_event.cas_kind; ok : bool }
  | Note of Lf_kernel.Mem_event.t
  | Span_begin of { op : op; key : int }
  | Span_end of { op : op; ok : bool }
  | Req_begin of { trace : int; id : int; parent : int; name : string }
      (** a request span opens; [parent] is 0 for a root, whose [id] is
          its [trace] *)
  | Req_end of { id : int; ok : bool }
  | Req_event of { id : int; ev : span_event }
      (** [Req_*] events are stamped with the caller's tick, which may
          come from another clock than the recorder's *)

type t = {
  ts : int;  (** clock units: ns on real memory, steps under the simulator *)
  dom : int;  (** recording domain (Chrome-trace pid) *)
  lane : int;  (** lane / simulated process (Chrome-trace tid) *)
  seq : int;  (** per-domain sequence number; breaks timestamp ties *)
  kind : kind;
}

val dummy : t
(** Placeholder for never-written ring slots. *)
