(* Vocabulary of the observability layer: what the per-domain ring buffers
   record.

   The recorded stream is deliberately the *protocol-level* view, not the
   raw access stream: C&S attempts with their outcomes (classified by the
   Section 3.4 kinds, so a trace shows exactly where the flag / mark /
   unlink steps contend), the cost-model annotations the structures already
   emit through [Mem.S.event] (backlink traversals, retries, helping), and
   the operation-span markers the harnesses add (begin / end around every
   dictionary operation).  Plain reads and writes are tallied by the
   recorder but not ringed — they dominate volume and carry no protocol
   information the spans do not already delimit. *)

type op = Insert | Delete | Find | Other

let op_to_string = function
  | Insert -> "insert"
  | Delete -> "delete"
  | Find -> "find"
  | Other -> "other"

let op_index = function Insert -> 0 | Delete -> 1 | Find -> 2 | Other -> 3
let op_count = 4
let ops = [ Insert; Delete; Find; Other ]

type kind =
  | Cas of { cas : Lf_kernel.Mem_event.cas_kind; ok : bool }
      (* one C&S attempt, with its outcome *)
  | Note of Lf_kernel.Mem_event.t
      (* a cost-model annotation (backlink step, retry, help, ...) *)
  | Span_begin of { op : op; key : int }
  | Span_end of { op : op; ok : bool }

type t = {
  ts : int;  (* clock units: ns on real memory, steps under the simulator *)
  dom : int;  (* recording domain (Chrome-trace pid) *)
  lane : int;  (* lane / simulated process (Chrome-trace tid) *)
  seq : int;  (* per-domain sequence number; breaks timestamp ties *)
  kind : kind;
}

(* Placeholder for ring-buffer slots that have never been written. *)
let dummy = { ts = 0; dom = 0; lane = 0; seq = 0; kind = Note Lf_kernel.Mem_event.Retry }
