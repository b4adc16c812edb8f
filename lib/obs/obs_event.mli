(** Vocabulary of the observability layer: the timestamped, lane-attributed
    events the per-domain ring buffers record — C&S attempts with outcomes
    (by Section 3.4 kind), the cost-model annotations structures emit
    through [Mem.S.event], and harness operation-span markers.  Plain reads
    and writes are tallied, not ringed (volume without protocol
    information). *)

type op = Insert | Delete | Find | Other

val op_to_string : op -> string

val op_index : op -> int
(** Dense index in [\[0, op_count)], for per-op histogram arrays. *)

val op_count : int

val ops : op list
(** Every [op], in [op_index] order. *)

type kind =
  | Cas of { cas : Lf_kernel.Mem_event.cas_kind; ok : bool }
  | Note of Lf_kernel.Mem_event.t
  | Span_begin of { op : op; key : int }
  | Span_end of { op : op; ok : bool }

type t = {
  ts : int;  (** clock units: ns on real memory, steps under the simulator *)
  dom : int;  (** recording domain (Chrome-trace pid) *)
  lane : int;  (** lane / simulated process (Chrome-trace tid) *)
  seq : int;  (** per-domain sequence number; breaks timestamp ties *)
  kind : kind;
}

val dummy : t
(** Placeholder for never-written ring slots. *)
