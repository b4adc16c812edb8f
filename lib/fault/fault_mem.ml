(* Fault-injecting memory: the functor seam once more.

   [Make (M)] is a [Mem.S] that forwards to [M], consulting an installed
   {!Fault.exec} before each shared access.  A spurious C&S failure
   returns [false] *without* calling [M.cas] - the wrapped memory (and any
   sanitizer stacked below, e.g. [Fault_mem] over [Check_mem] over
   [Atomic_mem]) never sees the attempt, exactly like a weak C&S that
   fails for no reason.  A crash raises {!Fault.Crashed} before the
   access, so whatever flags/marks the operation published remain in the
   structure for helpers to recover.  A stall burns pause rounds before
   the access: [cpu_relax] storms on real atomics, forced deschedulings
   under the simulator.

   The installed plan is module-level state, like [Check_mem]'s tables:
   install before spawning worker domains, uninstall after joining them
   (publication via [Domain.spawn] orders the write).  Lanes are
   identified by [Sim.running_pid] inside the simulator and by
   [Lf_kernel.Lane] on real domains. *)

module Ev = Lf_kernel.Mem_event
module Fp = Lf_kernel.Fault_point

module Make (M : Lf_kernel.Mem.S) = struct
  type 'a aref = 'a M.aref

  let exec : Fault.exec option ref = ref None
  let install plan = exec := Some (Fault.start plan)
  let uninstall () = exec := None
  let current () = !exec

  let injected () =
    match !exec with None -> [] | Some e -> Fault.trace e

  let lane () =
    match Lf_dsim.Sim.running_pid () with
    | Some p -> p
    | None -> Lf_kernel.Lane.get ()

  (* Decide and act on one access.  Stalls burn immediately; a crash
     raises; the return value reports whether a spurious C&S failure was
     requested (meaningful only for C&S accesses). *)
  let consult access =
    match !exec with
    | None -> false
    | Some e ->
        let acts = Fault.on_access e ~lane:(lane ()) access in
        let fail = ref false in
        let crash = ref false in
        List.iter
          (function
            | Fault.Stall n ->
                for _ = 1 to n do
                  M.pause 6
                done
            | Fault.Crash -> crash := true
            | Fault.Fail_cas -> fail := true)
          acts;
        if !crash then begin
          M.event (Ev.User "fault:crash");
          raise (Fault.Crashed (Fp.access_to_string access))
        end;
        !fail

  let note_result kind ok =
    match !exec with
    | None -> ()
    | Some e -> Fault.note_cas_result e ~lane:(lane ()) kind ok

  let make = M.make

  let get r =
    ignore (consult Fp.A_read : bool);
    M.get r

  let set r v =
    ignore (consult Fp.A_write : bool);
    M.set r v

  let cas r ~kind ~expect v =
    if consult (Fp.A_cas kind) then begin
      M.event (Ev.User "fault:cas-fail");
      note_result kind false;
      false
    end
    else begin
      let ok = M.cas r ~kind ~expect v in
      note_result kind ok;
      ok
    end

  let event = M.event
  let pause = M.pause
  let stamp = M.stamp
  let annotate = M.annotate
end
