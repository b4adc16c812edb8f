(* GC attribution: the runtime's collection and word counters as
   process-lifetime totals, exported next to the latency histograms so a
   latency regression can be blamed on (or cleared of) allocation pressure.
   [Gc.quick_stat] reads mutator-local counters and does not itself
   trigger a collection.  OCaml's GC counters are per-runtime, not
   per-domain. *)

type snap = {
  minor_collections : int;
  major_collections : int;
  minor_words : float;  (** words allocated on the minor heap *)
  promoted_words : float;  (** words that survived into the major heap *)
}

let totals () =
  let s = Gc.quick_stat () in
  {
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    (* Not [s.minor_words]: on OCaml 5 [quick_stat]'s word counts only
       advance at collection boundaries, quantizing window deltas to whole
       minor heaps (2^18 words) — useless for per-op attribution.
       [Gc.minor_words ()] reads the live allocation pointer. *)
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
  }
