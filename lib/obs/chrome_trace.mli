(** Chrome trace-event JSON exporter (loadable in chrome://tracing and
    Perfetto): pid = domain, tid = lane, operation spans as "B"/"E"
    pairs, C&S attempts and cost-model notes as instants, metadata rows
    naming every pid/tid.  A pre-pass drops span edges orphaned by ring
    overwrites, so emitted spans always pair.  With the simulator clock
    and [time_div = 1] the output is a pure function of the seed. *)

val to_string : ?time_div:int -> Obs_event.t list -> string
(** [time_div] divides recorder timestamps into the file's time unit:
    1 (default) under the simulator, 1000 for ns -> us on real memory.
    Request-span events are skipped: [Flight] renders them as trees. *)

(** {1 The row printer} — shared with [Flight] *)

type arg = Int of int | Bool of bool | Str of string
(** An ["args"] value; [Str] is escaped. *)

type rows

val rows : unit -> rows

val row :
  rows -> ?cat:string -> ?ts:int -> ph:char -> pid:int -> tid:int ->
  ?args:(string * arg) list -> string -> unit
(** [row r ~ph ~pid ~tid name] appends one event, fields in the order
    name, cat, ph, ts, pid, tid, ["s":"t"] (on ['i'] rows only), args
    (left out when empty). *)

val contents : rows -> string
(** Close the file and return it; call once. *)

val escape : string -> string
(** JSON string-body escaping, shared with [Flight]'s bundle. *)

val check : string -> (unit, string) result
(** Well-formedness: parses as JSON, has a [traceEvents] array, B/E
    edges nest per (pid, tid) with matching names and ordered
    timestamps, every pid emitting spans or instants is named by
    process_name metadata, and "C" counter rows carry a name and
    timestamp. *)

