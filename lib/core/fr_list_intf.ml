(* The signature of [Fr_list.Make]'s result, shared by the functor and the
   shipped instances (see fr_list.mli).  It lives in a unit of its own so
   that fr_list.ml and fr_list.mli both name it without a second copy.

   The layout stays abstract.  A regular node is one inline record
   holding its key and element unboxed; the head and the tail are the
   only two sentinels, which hold no key or element; every succ
   descriptor's constructor is its mark and flag, and it carries copies
   of its right node's key and succ cell; and the tail's own descriptor,
   which has no right node, is a constant that no other cell holds.  So
   [check_invariants] checks the copies, the sentinels and that constant,
   and [Debug] renders a sentinel's key as -inf/+inf. *)

module type S = sig
  type key

  type 'a t
  (** A dictionary from [key] to ['a]. *)

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
      cache: each operation looks up the calling domain's slot once and
      starts its search from the last node that domain ended on,
      validated per Section 3.2 (unmarked, key below the target; unusable
      ones fall back to the head).  Validation and publication allocate
      nothing, so a hinted operation allocates what an unhinted one
      does.  A hint whose node was marked is dropped, so an idle domain's
      cache never keeps a deleted node reachable.  Backlink recovery
      remains for the window between the mark and the drop, and for
      batch carries.
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
      flagged node, the head included, still linked, the head and the tail
      the only sentinels,
      the tail's own descriptor in the tail's cell and in no other, and
      every linked descriptor's copies of its right node's key and succ
      cell physically that key and cell.  Raises [Failure] on
      violation. *)

  (** {1 Introspection}

      Walking the physical chain is only meaningful when no step can
      interleave: at quiescence, or inside the deterministic simulator
      (wrap calls in [Lf_dsim.Sim.quiet]). *)
  module Debug : sig
    type cell = {
      key : key Lf_kernel.Ordered.bounded;
      marked : bool;
      flagged : bool;
      is_sentinel : bool;
      backlink_key : key Lf_kernel.Ordered.bounded option;
    }

    val physical_chain : 'a t -> cell list
    (** Every node physically reachable from the head, sentinels included. *)

    val check_now : 'a t -> (unit, string) result
    (** INV 1-4 of Section 3.3 restricted to the physically linked chain:
        sortedness, and a flagged predecessor and correct backlink for
        every logically deleted node.  INV 5 (mark/flag exclusion) holds by
        construction: no descriptor is both.  The flagless ablation is only
        checked for INV 1. *)
  end
end
