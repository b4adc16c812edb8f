(** Fault-injecting memory: wraps any {!Lf_kernel.Mem.S} and executes an
    installed {!Fault.plan} against every shared access.

    A spurious C&S failure returns [false] without calling the wrapped
    [cas] — stacked sanitizers (e.g. [Fault_mem] over [Lf_check.Check_mem]
    over [Atomic_mem]) never see the attempt, exactly like a weak C&S. A
    crash raises {!Fault.Crashed} {e before} the access, leaving the
    operation's published flags/marks in place for helpers.  A stall burns
    {!Lf_kernel.Mem.S.pause} rounds before the access.

    The installed plan is module-level state (one per functor
    instantiation, like [Check_mem]'s tables): {!Make.install} before
    spawning worker domains, {!Make.uninstall} after joining them.  Lanes
    are identified by [Lf_dsim.Sim.running_pid] inside the simulator and
    by {!Lf_kernel.Lane} on real domains. *)

module Make (M : Lf_kernel.Mem.S) : sig
  include Lf_kernel.Mem.S with type 'a aref = 'a M.aref

  val install : Fault.plan -> unit
  (** Start executing a fresh {!Fault.exec} of this plan.  Replaces any
      installed one. *)

  val uninstall : unit -> unit

  val current : unit -> Fault.exec option

  val injected : unit -> Fault.injected list
  (** Trace of the installed execution ([[]] if none installed). *)
end
