(** Shared-memory abstraction.

    Every concurrent structure in this repository is a functor over
    {!module-type:S}, so the exact same algorithm code runs on real atomics
    ({!Atomic_mem}), with per-domain cost counters ({!Counting_mem}), or
    inside the deterministic simulator ([Lf_dsim.Sim_mem]) where each shared
    access is a scheduling point.  This is the repository's load-bearing
    design decision: the code that is measured is the code that ships.

    The shipped [Atomic_int] instances are that same code with [M] bound to
    {!Atomic_mem} by name rather than by application: a build rule copies
    each structure's functor body into a unit of its own
    (tools/specialize), where {!Atomic_mem}'s primitive [make], [get] and
    [event] compile inline.  Through a functor argument they are calls,
    because the compiler has no flambda and dev builds are [-opaque]. *)

module type S = sig
  type 'a aref
  (** A single shared word holding an immutable value of type ['a]. *)

  val make : 'a -> 'a aref
  (** Allocate a cell.  Never a scheduling point (fresh cells are private
      until published by a C&S). *)

  val get : 'a aref -> 'a
  (** Atomic read. *)

  val cas : 'a aref -> kind:Mem_event.cas_kind -> expect:'a -> 'a -> bool
  (** Single-word compare-and-swap with {e physical equality} on [expect].
      [kind] classifies the attempt for the Section 3.4 cost model.  The
      paper's C&S returns the old value; OCaml's returns a boolean, so call
      sites that branch on the failure reason re-read the cell and
      re-validate (every such branch in the algorithms is self-validating;
      see DESIGN.md). *)

  val set : 'a aref -> 'a -> unit
  (** Unconditional store.  Used only for backlink pointers, which every
      racing helper writes with the same value. *)

  val event : Mem_event.t -> unit
  (** Cost-model annotation.  Never a scheduling point. *)

  val pause : int -> unit
  (** Backoff hint after [n] consecutive failures: [cpu_relax] spinning on
      real memory, a yield in the simulator. *)

  val stamp : 'a aref -> int
  (** Checker-assigned identity of the cell.  Positive and unique per cell
      under a checked memory ([Lf_check.Check_mem]); [0] everywhere else.
      Never a scheduling point. *)

  val annotate : 'a aref -> 'a Protocol.annot -> unit
  (** Declare a freshly made cell as a protocol carrier (a succ field or a
      backlink) so a checked memory can validate every transition against
      the paper's state machine (see {!Protocol}).  A no-op on unchecked
      memories; never a scheduling point. *)
end
