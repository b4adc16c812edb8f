(* The signature of [Fr_skiplist.Make]'s result, shared by the functor and
   the shipped instances (see fr_skiplist.mli).  It lives in a unit of its
   own so that fr_skiplist.ml and fr_skiplist.mli both name it without a
   second copy. *)

module type S = sig
  type key
  type 'a t

  val name : string

  val create : unit -> 'a t
  (** [create_with ~max_level:24 ~help_superfluous:true ()]. *)

  val create_with :
    ?max_level:int ->
    ?help_superfluous:bool ->
    unit ->
    'a t
  (** [max_level] (default 24) is the number of levels; it must be at
      least 1.  @raise Invalid_argument if [max_level < 1].

      [~help_superfluous:false] is the EXP-9 ablation: searches traverse
      superfluous towers instead of deleting them, and deletions skip the
      upper-level cleanup.  Only safe when keys are never reinserted (a
      stale same-key upper node would block a new tower forever). *)

  (** {1 Dictionary operations (SEARCH_SL / INSERT_SL / DELETE_SL)} *)

  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool

  val insert : 'a t -> key -> 'a -> bool
  (** Tower height drawn by fair coin flips (geometric, capped at
      [max_level]); [false] on duplicate. *)

  val insert_with_height : 'a t -> height:int -> key -> 'a -> bool
  (** Deterministic-height insertion for tests and experiments; the height
      is clamped to [\[1, max_level\]]. *)

  val delete : 'a t -> key -> bool

  val delete_min : 'a t -> (key * 'a) option
  (** Claim the leftmost regular root with the three-step deletion
      (Lotan-Shavit style priority-queue removal).  Quiescently consistent:
      a racing smaller insert may be missed; each element is claimed by
      exactly one caller. *)

  (** {1 Batched operations}

      One {!insert}, {!delete} or {!mem} per element, in input order; each
      element is an independent linearizable operation that takes effect
      inside the batch call. *)

  val insert_batch : 'a t -> (key * 'a) list -> bool list
  val delete_batch : 'a t -> key list -> bool list
  val mem_batch : 'a t -> key list -> bool list

  val hint_stats : 'a t -> Lf_kernel.Hint.stats option
  (** Always [None]: every search descends from the top, so there is no
      hint cache to report.  Kept for callers written against the
      [Fr_list] interface (the perfbench ladder reads it). *)

  (** {1 Order-aware operations} *)

  val find_ge : 'a t -> key -> (key * 'a) option
  (** Successor query in expected O(log n). *)

  val min_binding : 'a t -> (key * 'a) option

  val max_binding : 'a t -> (key * 'a) option
  (** Largest regular binding, by walking right before descending:
      expected O(log n). *)

  val fold_range : 'a t -> lo:key -> hi:key -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
  (** In-order fold over [lo <= key <= hi]; weakly consistent under
      concurrency. *)

  (** {1 Snapshots (exact at quiescence)} *)

  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
  val to_list : 'a t -> (key * 'a) list
  val length : 'a t -> int

  val level_counts : 'a t -> int array
  (** [level_counts t].(l-1) is the number of non-sentinel nodes linked on
      level [l] (marked ones included). *)

  val height_histogram : 'a t -> int array
  (** [height_histogram t].(h) is the number of towers of height [h],
      obtained by differencing {!level_counts} (EXP-7). *)

  val keys_at_level : 'a t -> int -> key list
  (** Keys physically linked on one level, in order, regardless of marks. *)

  val check_invariants : 'a t -> unit
  (** Quiescent validation of every level (sortedness, no marked/flagged
      nodes, down-pointer key consistency, every descriptor's [right_key]
      and [right_succ] physically its right node's key and [succ] cell,
      every node's down-node cell physically its down node's [succ] cell,
      no surviving superfluous nodes in helping mode).  Raises [Failure]
      on violation. *)
end
