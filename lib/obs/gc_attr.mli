(** GC attribution: collection counts and allocated and promoted words,
    as process-lifetime totals, exported next to the latency histograms
    so a latency spike can be blamed on — or cleared of — allocation
    pressure.  The counters are per-runtime, not per-domain. *)

type snap = {
  minor_collections : int;
  major_collections : int;
  minor_words : float;  (** words allocated on the minor heap *)
  promoted_words : float;  (** words that survived into the major heap *)
}

val totals : unit -> snap
(** Process-lifetime totals; every field is monotone (these back the
    [lf_gc_*_total] Prometheus counters). *)
