(* Shared-memory abstraction.

   All concurrent structures in this repository are functors over [Mem.S] so
   that the exact same algorithm code can be
   - instantiated with {!Atomic_mem} for production / wall-clock benchmarks
     (the shipped [Atomic_int] units bind it by name instead: the same
     functor text, copied at build time by tools/specialize),
   - instantiated with {!Counting_mem} for cheap step counting on real runs,
   - instantiated with the simulator's memory ([Lf_dsim.Sim_mem]) where every
     shared access is a deterministic scheduling point.

   [cas] is a single-word compare-and-swap with *physical equality* on the
   expected value.  The paper's C&S returns the old value; OCaml's exposes a
   boolean, so callers that need the failure reason re-read the cell — every
   such call site in the algorithms re-validates the state it reads, which
   keeps the decisions linearizable (see DESIGN.md, substitution table). *)

module type S = sig
  type 'a aref

  val make : 'a -> 'a aref
  val get : 'a aref -> 'a

  val cas : 'a aref -> kind:Mem_event.cas_kind -> expect:'a -> 'a -> bool
  (** Physical-equality compare-and-swap.  [kind] classifies the attempt for
      the Section 3.4 cost model. *)

  val set : 'a aref -> 'a -> unit
  (** Unconditional store (used only for backlink pointers, which are written
      at most to a single value by however many helpers race on them). *)

  val event : Mem_event.t -> unit
  (** Cost-model annotation; never a scheduling point. *)

  val pause : int -> unit
  (** Backoff hint after [n] consecutive failures; a no-op or [cpu_relax] on
      real memory, a yield in the simulator. *)

  val stamp : 'a aref -> int
  (** Checker-assigned identity of the cell.  Positive and unique per cell
      under a checked memory ([Lf_check.Check_mem]); [0] everywhere else.
      Never a scheduling point. *)

  val annotate : 'a aref -> 'a Protocol.annot -> unit
  (** Declare a freshly made cell as a protocol carrier (a succ field or a
      backlink) so a checked memory can validate every transition against
      the paper's state machine.  A no-op on unchecked memories; never a
      scheduling point. *)
end
