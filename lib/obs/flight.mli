(** The flight recorder: dump the request trees {!Span.trees} rebuilds
    from the recorder's per-domain rings as a deterministic JSON bundle
    plus a Chrome-trace file.

    The rings fill while the recorder is at [Tracing]; this module only
    serializes what they hold, so a dump is cheap enough to trigger
    from an anomaly path (breaker open, watchdog, SLO fast-burn, shard
    KILL).  The bundle is a pure function of the
    retained trees, the reason and the metadata: under a deterministic
    clock, two identical runs dump byte-identical bundles (the exp24
    replay check). *)

val dump_string : reason:string -> ?meta:(string * string) list -> unit -> string
(** The JSON bundle: [{"reason":..., "meta":{...}, "trees":[...]}] with
    trees sorted by trace id, spans by [(begin, id)], events oldest
    first, and each tree annotated with its {!Span.dominant_phase}. *)

val chrome_string : unit -> string
(** The retained trees as Chrome trace-event JSON (one thread track per
    trace, pid 0); passes {!Chrome_trace.check}. *)

val dump :
  dir:string ->
  reason:string ->
  ?meta:(string * string) list ->
  unit ->
  (string * string, string) result
(** Write both renderings into [dir] (created with any missing parents)
    as [flight-<seq>-<reason>.json] and
    [flight-<seq>-<reason>.trace.json]; returns the two paths, or the
    reason the directory or a file could not be written.  [seq] is a
    process-wide dump counter. *)
