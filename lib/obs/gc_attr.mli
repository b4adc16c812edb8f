(** GC attribution for the tail-latency experiments: [Gc.quick_stat]
    deltas (collection counts, allocated and promoted words) over a
    measured window, emitted next to the latency histograms so a p999
    spike can be blamed on — or cleared of — allocation pressure.

    The counters are per-runtime, not per-domain: windows are exact for
    single-domain measured sections (how EXP-22 runs) and upper bounds
    under parallelism. *)

type snap = {
  minor_collections : int;
  major_collections : int;
  minor_words : float;  (** words allocated on the minor heap *)
  promoted_words : float;  (** words that survived into the major heap *)
}

val totals : unit -> snap
(** Process-lifetime totals; every field is monotone (these back the
    [lf_gc_*_total] Prometheus counters). *)

val diff : before:snap -> snap -> snap
(** [diff ~before after] — componentwise [after - before]. *)

val window : unit -> snap
(** Deltas since the previous [window] (or {!reset_window}) call —
    process start for the first call.  One global window; the benches
    measure one section at a time. *)

val reset_window : unit -> unit
(** Start a fresh window without reading the previous one. *)
