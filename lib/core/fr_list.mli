(** Lock-free sorted singly-linked list of Fomitchev & Ruppert (PODC 2004),
    Figures 3-5 — the paper's primary contribution.

    Every node carries a successor descriptor [(right, mark, flag)] in one
    C&S-able word and a backlink pointer.  Deleting node B with predecessor
    A takes three C&S steps:

    + {e flag} A: [A.succ: (B,0,0) -> (B,0,1)] (TRYFLAG) — pins A;
    + {e mark} B: set [B.backlink <- A], then [B.succ: (C,0,0) -> (C,1,0)]
      (TRYMARK) — the linearization point of the deletion;
    + {e unlink} B and unflag A: [A.succ: (B,0,1) -> (C,0,0)] (HELPMARKED).

    An operation that fails a C&S because its predecessor got marked follows
    backlinks to the nearest unmarked node and resumes there instead of
    restarting from the head; because a node is only marked while its
    predecessor is flagged (hence unmarked), backlinks never point at marked
    nodes when set, chains of backlinks cannot grow rightward, and the
    amortized cost of an operation S is O(n(S) + c(S)) — list size plus
    point contention (the paper's Theorem, validated by EXP-1).

    All operations are linearizable (Section 3.3; checked mechanically by
    the test suite and EXP-10) and lock-free: a stalled process never blocks
    others, who help pending deletions to completion. *)

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) : sig
  type key = K.t

  type 'a t
  (** A dictionary from [K.t] to ['a]. *)

  type mutation =
    | Skip_flag
    | Double_mark
    | Unlink_unflagged
    | Backlink_right
    | No_help
  (** Seeded protocol bugs for the sanitizer and watchdog tests.  The first
      four corrupt one step of the three-step protocol in the mutated
      list's [delete]: on unchecked memories the damage is silent (often
      even invisible to a quiescent [check_invariants]); under
      [Lf_check.Check_mem] each variant trips a specific invariant —
      respectively INV 3 (marking without a flagged predecessor), INV 2
      (marked is terminal), INV 3 (physical delete from an unflagged
      predecessor) and INV 4 (backlink points right).

      [No_help] instead disables the altruistic helping at every site that
      encounters {e another} operation's flag (operations still complete
      their own deletions).  The structure stays correct under benign
      schedules but is no longer lock-free: an operation stuck behind a
      crashed flag holder spins forever, which the starvation watchdogs
      ([Lf_workload.Sim_driver.run_chaos_sim], [Lf_workload.Runner.run_chaos])
      must detect by name. *)

  val name : string

  val create : unit -> 'a t

  val create_with :
    ?mutation:mutation ->
    ?use_hints:bool ->
    use_flags:bool ->
    unit ->
    'a t
  (** [create_with ~use_flags:false] builds the EXP-8 ablation variant:
      two-step Harris-style deletion that still sets backlinks but never
      flags the predecessor.  It is correct but loses the guarantee that
      backlinks point at unmarked nodes — the pathology flags exist to
      prevent.  The ablation is not annotated for checked memories, unlike
      the [use_flags:true] variants (mutated or not).

      [use_hints] (default [true]) enables the per-domain predecessor
      cache: each operation starts its search from the last node the
      calling domain ended on, validated per Section 3.2 (unmarked, key
      below the target; unusable ones fall back to the head).  A hint
      whose node was marked is dropped, so an idle domain's cache never
      keeps a deleted node reachable.  Backlink recovery remains for the
      window between the mark and the drop, and for batch carries.
      [~use_hints:false] is the EXP-17 ablation.

      [create () = create_with ~use_flags:true ()]. *)

  (** {1 Dictionary operations (Figures 3-5)} *)

  val find : 'a t -> key -> 'a option
  (** SEARCH. *)

  val mem : 'a t -> key -> bool

  val insert : 'a t -> key -> 'a -> bool
  (** INSERT: [false] on DUPLICATE_KEY. *)

  val delete : 'a t -> key -> bool
  (** DELETE: [false] on NO_SUCH_KEY.  Exactly one of several racing
      deletions of the same node reports success. *)

  (** {1 Batched operations}

      The Träff–Pöter "pragmatic" pattern: the batch is processed in key
      order and each element's end-of-search predecessor is carried (after
      hint-style re-validation) as the next element's start, so a batch of
      b nearby keys pays one head-to-region walk instead of b.  Results are
      in the caller's original order.  Linearizable per element — each
      element is an independent operation that takes effect at its own
      linearization point somewhere inside the batch call. *)

  val insert_batch : 'a t -> (key * 'a) list -> bool list
  val delete_batch : 'a t -> key list -> bool list
  val mem_batch : 'a t -> key list -> bool list

  val hint_stats : 'a t -> Lf_kernel.Hint.stats option
  (** Summed hint-cache counters ([None] when hints are off).  Quiescent
      use only. *)

  (** {1 Order-aware operations} *)

  val find_ge : 'a t -> key -> (key * 'a) option
  (** Successor query: the smallest regular binding with key >= the
      argument. *)

  val min_binding : 'a t -> (key * 'a) option

  val fold_range : 'a t -> lo:key -> hi:key -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
  (** Fold over regular bindings with [lo <= key <= hi] in key order.
      Weakly consistent under concurrency, like any lock-free iterator:
      it reflects some interleaving of the updates that race with it. *)

  (** {1 Snapshots (exact at quiescence)} *)

  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
  val iter : 'a t -> (key -> 'a -> unit) -> unit
  val to_list : 'a t -> (key * 'a) list
  val length : 'a t -> int

  val check_invariants : 'a t -> unit
  (** Quiescent structural validation: strict sorting (INV 1), no marked or
      flagged node still linked.  Raises [Failure] on violation. *)

  (** {1 Introspection}

      Walking the physical chain is only meaningful when no step can
      interleave: at quiescence, or inside the deterministic simulator
      (wrap calls in [Lf_dsim.Sim.quiet]). *)
  module Debug : sig
    type cell = {
      key : K.t Lf_kernel.Ordered.bounded;
      marked : bool;
      flagged : bool;
      is_sentinel : bool;
      backlink_key : K.t Lf_kernel.Ordered.bounded option;
    }

    val physical_chain : 'a t -> cell list
    (** Every node physically reachable from the head, sentinels included. *)

    val check_now : 'a t -> (unit, string) result
    (** INV 1-5 of Section 3.3 restricted to the physically linked chain:
        sortedness, mark/flag exclusion, flagged predecessor and correct
        backlink for every logically deleted node.  The flagless ablation is
        only checked for INV 1 and INV 5. *)
  end
end

(** Convenience instantiations over real atomics. *)

module Atomic_int : module type of Make (Lf_kernel.Ordered.Int) (Lf_kernel.Atomic_mem)

module Atomic_string :
  module type of Make (Lf_kernel.Ordered.String) (Lf_kernel.Atomic_mem)

module Counting_int :
  module type of Make (Lf_kernel.Ordered.Int) (Lf_kernel.Counting_mem)
