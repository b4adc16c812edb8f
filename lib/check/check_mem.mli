(** Protocol sanitizer: wraps any {!Lf_kernel.Mem.S} and validates every
    mutation of an annotated cell against the paper's succ-field state
    machine and online versions of INV 1-5, raising
    {!Violation.Protocol_violation} at the offending access.

    Cells never annotated (via {!Lf_kernel.Mem.S.annotate}) pass through
    unchecked, so algorithms that do not speak the Fomitchev-Ruppert
    protocol (Harris, Valois, the flagless ablation) run unchanged.

    Safe both inside the deterministic simulator (wrap [Lf_dsim.Sim_mem];
    accesses under {!Lf_dsim.Sim.quiet} are treated as observation and
    attributed to the observing domain) and under real parallelism (wrap
    [Atomic_mem]; a global mutex serializes each checked mutation with its
    bookkeeping, which costs throughput but keeps transition order exact -
    the usual sanitizer bargain). *)

module Make (M : Lf_kernel.Mem.S) : sig
  include Lf_kernel.Mem.S

  val reset : unit -> unit
  (** Forget every annotation, trace and chain.  Call between independent
      structures sharing this instantiation (e.g. consecutive test cases)
      to keep reports and snapshots focused. *)

  val snapshot : unit -> string list
  (** Render every annotated chain (one string per head cell) as the
      checker currently understands it. *)

  (** {1 Crash residue}

      The online state machine accepts crash-truncated protocols by
      construction: a crashed process simply stops C&S-ing, and every
      prefix of the three-step deletion leaves a state from which the
      survivors' transitions still validate.  What a crash changes is the
      {e quiescent} picture: a structure at rest may legitimately hold a
      flagged predecessor and/or a marked, still-linked victim (which the
      structures' own [check_invariants] rejects).  Call these at
      quiescence — or inside [Lf_dsim.Sim.quiet] — after a chaos or
      crash-enumeration run. *)

  type residue = {
    r_flagged : (string * string) list;
        (** each flagged cell's owner, with the deletion window the victim
            died in: ["tryflag->trymark"] (successor not yet marked) or
            ["trymark->helpmarked"] (marked, awaiting unlink) *)
    r_marked : string list;
        (** owners of marked cells still reachable from a head *)
  }

  val residue : unit -> residue
  (** Classify the protocol leftovers currently reachable from the head
      cells. *)

  val check_crash_residue : unit -> (unit, string) result
  (** Check the leftovers are ones a crash can explain: no cell both
      marked and flagged (INV 5), and every marked cell still reachable is
      pinned by a flagged predecessor (INV 3) — i.e. the residue is a
      prefix of some deletion, recoverable by any helper. *)
end
