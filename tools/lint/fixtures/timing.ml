(* Fixture for [no-timing-in-structures]: structure code must not read
   clocks — the system's, the [Monotonic_clock] stub behind
   [Lf_obs.Clock], or [Lf_obs.Clock] itself — or reach into the
   recorder: value uses, functor applications, type constructors.
   Observability comes from outside, through [Lf_obs.Trace_mem] stacked
   at the memory seam; only the kernel, lib/obs itself and the harness
   trees (workload, bench, bin, test) measure time.  [Unix.sleep]/[sleepf]
   are delays, not measurements, and stay with [no-fault-hooks]. *)

let t0 () = Unix.gettimeofday () (* EXPECT: no-timing-in-structures *)
let wall () = Unix.time () (* EXPECT: no-timing-in-structures *)
let rusage () = Unix.times () (* EXPECT: no-timing-in-structures *)
let cpu () = Sys.time () (* EXPECT: no-timing-in-structures *)
let monotonic () = Mtime.Span.zero (* EXPECT: no-timing-in-structures *)
let calendar () = Ptime.epoch (* EXPECT: no-timing-in-structures *)
let stub () = Monotonic_clock.now () (* EXPECT: no-timing-in-structures *)
let one_clock () = Lf_obs.Clock.now (Lf_obs.Clock.real ()) (* EXPECT: no-timing-in-structures *)

(* Reaching into the recorder from inside a structure couples it to one
   observer and perturbs the simulator's determinism. *)
let self_observe () = Lf_obs.Recorder.on_read () (* EXPECT: no-timing-in-structures *)

module TM = Lf_obs.Trace_mem.Make (Lf_kernel.Atomic_mem) (* EXPECT: no-timing-in-structures *)

type latencies = { hist : Lf_obs.Hist.t } (* EXPECT: no-timing-in-structures *)

(* The seam way is fine: [M.stamp] and [M.event] go through the memory,
   so a Trace_mem-wrapped run observes them and a plain run pays nothing.
   No marker here. *)
module Mk (M : Lf_kernel.Mem.S) = struct
  let visit r = M.event r Lf_kernel.Mem_event.Retry
end

let _ = (t0, wall, rusage, cpu, monotonic, calendar, stub, one_clock, self_observe)
