(** Chrome trace-event JSON exporter (loadable in chrome://tracing and
    Perfetto): pid = domain, tid = lane, operation spans as "B"/"E"
    pairs, C&S attempts and cost-model notes as instants, metadata rows
    naming every pid/tid.  A pre-pass drops span edges orphaned by ring
    overwrites, so emitted spans always pair.  With the simulator clock
    and [time_div = 1] the output is a pure function of the seed. *)

val to_string : ?time_div:int -> ?gc:Gc_attr.snap -> Obs_event.t list -> string
(** [time_div] divides recorder timestamps into the file's time unit:
    1 (default) under the simulator, 1000 for ns -> us on real memory.
    [gc], when given, is emitted as a "C" (counter) row carrying the GC
    attribution for the window the trace covers. *)

val escape : string -> string
(** JSON string-body escaping, shared with [Flight]'s renderings. *)

val check : string -> (unit, string) result
(** Well-formedness: parses as JSON, has a [traceEvents] array, B/E
    edges nest per (pid, tid) with matching names and ordered
    timestamps, every pid emitting spans or instants is named by
    process_name metadata, and "C" counter rows carry a name and
    timestamp. *)

