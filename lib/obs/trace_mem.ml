(* Tracing memory: the functor seam once more.

   [Make (M)] is a [Mem.S] that forwards every access to [M] and reports
   it to the module-level {!Recorder} — which structure code cannot see
   and which costs one word read when recording is off.  At [Tracing] a
   C&S lands in the same ring as the request spans, which is how
   [Span.trees] finds the attempt that suffered a failed one.  Stacks
   like the other wrappers: [Trace_mem.Make (Atomic_mem)] for wall-clock runs,
   [Trace_mem.Make (Sim_mem)] for deterministic traces, and it composes
   under or over [Fault_mem] / [Check_mem] since all speak [Mem.S]. *)

module Make (M : Lf_kernel.Mem.S) = struct
  type 'a aref = 'a M.aref

  let make = M.make

  let get r =
    let v = M.get r in
    Recorder.on_read ();
    v

  let set r v =
    M.set r v;
    Recorder.on_write ()

  let cas r ~kind ~expect v =
    let ok = M.cas r ~kind ~expect v in
    Recorder.on_cas kind ok;
    ok

  let event e =
    M.event e;
    Recorder.on_event e

  let pause = M.pause
  let stamp = M.stamp
  let annotate = M.annotate
end
