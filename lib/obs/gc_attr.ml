(* GC attribution: where the tail latency goes.

   EXP-19 showed a p999/p99 cliff of ~170x on the real-memory workload
   runner; the hypothesis (confirmed by EXP-22) is that the spikes are
   minor-collection pauses caused by per-attempt descriptor allocation in
   the C&S retry loops.  This module turns [Gc.quick_stat] — which reads
   mutator-local counters and does not itself trigger a collection — into
   attribution numbers the benches and exporters can emit next to the
   latency histograms: collections and allocated/promoted words per
   measured window, so a latency regression can be blamed on (or cleared
   of) allocation pressure in one read.

   Everything here is process-global: OCaml's GC counters are per-runtime,
   not per-domain, so attribution windows are meaningful for single-domain
   measured sections (how EXP-22 runs) and are upper bounds otherwise. *)

type snap = {
  minor_collections : int;
  major_collections : int;
  minor_words : float;  (** words allocated on the minor heap *)
  promoted_words : float;  (** words that survived into the major heap *)
}

let zero =
  {
    minor_collections = 0;
    major_collections = 0;
    minor_words = 0.;
    promoted_words = 0.;
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

let diff ~(before : snap) (after : snap) =
  {
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
  }

(* Stateful window: deltas since the previous [window] call (process start
   for the first).  One global window is enough for the benches, which
   measure one section at a time. *)
let window_base = ref zero

let window () =
  let now = totals () in
  let d = diff ~before:!window_base now in
  window_base := now;
  d

let reset_window () = window_base := totals ()
