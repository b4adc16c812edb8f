(* Vocabulary of the observability layer: what the per-domain ring buffers
   record.

   The recorded stream is deliberately the *protocol-level* view, not the
   raw access stream: C&S attempts with their outcomes (classified by the
   Section 3.4 kinds, so a trace shows exactly where the flag / mark /
   unlink steps contend), the cost-model annotations the structures already
   emit through [Mem.S.event] (backlink traversals, retries, helping), and
   the operation-span markers the harnesses add (begin / end around every
   dictionary operation), and the request spans [Span] opens, closes and
   annotates (DESIGN.md §14), so one ring per domain holds every
   observation.  Plain reads and writes are tallied by the recorder but
   not ringed — they dominate volume and carry no protocol information
   the spans do not already delimit. *)

type op = Insert | Delete | Find | Other

let op_to_string = function
  | Insert -> "insert"
  | Delete -> "delete"
  | Find -> "find"
  | Other -> "other"

let op_index = function Insert -> 0 | Delete -> 1 | Find -> 2 | Other -> 3
let op_count = 4
let ops = [ Insert; Delete; Find; Other ]

(* A request span's typed events: the pipeline-decision vocabulary,
   re-exported as [Span.event].  Defined before [kind] so an unqualified
   [Note] means the cost-model note. *)
type span_event =
  | Deadline_check of bool
  | Shed_verdict of string
  | Breaker_verdict of string
  | Degrade_mode of string
  | Retry_wait of { attempt : int; delay : int }
  | Budget_denied
  | Hedge_outcome of string
  | Drain_wait of int
  | Op of op * int
  | Cas_fail of Lf_kernel.Mem_event.cas_kind
  | Note of string

type kind =
  | Cas of { cas : Lf_kernel.Mem_event.cas_kind; ok : bool }
      (* one C&S attempt, with its outcome *)
  | Note of Lf_kernel.Mem_event.t
      (* a cost-model annotation (backlink step, retry, help, ...) *)
  | Span_begin of { op : op; key : int }
  | Span_end of { op : op; ok : bool }
  (* Request spans, stamped with the caller's tick. *)
  | Req_begin of { trace : int; id : int; parent : int; name : string }
  | Req_end of { id : int; ok : bool }
  | Req_event of { id : int; ev : span_event }

type t = {
  ts : int;  (* clock units: ns on real memory, steps under the simulator *)
  dom : int;  (* recording domain (Chrome-trace pid) *)
  lane : int;  (* lane / simulated process (Chrome-trace tid) *)
  seq : int;  (* per-domain sequence number; breaks timestamp ties *)
  kind : kind;
}

(* Placeholder for ring-buffer slots that have never been written. *)
let dummy = { ts = 0; dom = 0; lane = 0; seq = 0; kind = Note Lf_kernel.Mem_event.Retry }
