(** Lock-free priority queues on top of the Fomitchev-Ruppert skip list, in
    the style of Lotan & Shavit [13] and Sundell & Tsigas [14].

    [pop_min] claims the leftmost root with the three-step deletion, so a
    stalled process never blocks the others.  Like the Lotan-Shavit queue it
    is quiescently consistent: a pop racing with the insert of a smaller key
    may miss it; every element is claimed exactly once; orderings are exact
    at quiescence. *)

(** Unique priorities (the underlying structure is a dictionary). *)
module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) : sig
  type 'a t

  val create : ?max_level:int -> ?use_hints:bool -> unit -> 'a t
  (** [use_hints] (default [true]) is forwarded to the underlying skip list
      (see [Fr_skiplist.create_with]). *)

  val push : 'a t -> K.t -> 'a -> bool
  (** [false] if this priority is already queued. *)

  val pop_min : 'a t -> (K.t * 'a) option
  val peek_min : 'a t -> (K.t * 'a) option

  val push_batch : 'a t -> (K.t * 'a) list -> bool list
  (** Batched push via the skip list's key-ordered predecessor carrying;
      results in input order. *)

  val pop_min_batch : 'a t -> int -> (K.t * 'a) list
  (** Pop up to [n] elements, smallest first; each element is claimed by
      exactly one caller, as in the unbatched {!pop_min}. *)

  val is_empty : 'a t -> bool
  val length : 'a t -> int
end

(** Arbitrary integer priorities: each pushed element is stamped with a
    sequence number, making keys unique and giving FIFO order among equal
    priorities. *)
module Stamped (M : Lf_kernel.Mem.S) : sig
  type 'a t

  val create : ?max_level:int -> ?use_hints:bool -> unit -> 'a t

  val push : 'a t -> int -> 'a -> unit
  val pop_min : 'a t -> (int * 'a) option

  val push_batch : 'a t -> (int * 'a) list -> unit
  (** Stamp then batch-insert; stamps are unique so no push can fail. *)

  val pop_min_batch : 'a t -> int -> (int * 'a) list

  val is_empty : 'a t -> bool
  val length : 'a t -> int
end

module Atomic_int : module type of Make (Lf_kernel.Ordered.Int) (Lf_kernel.Atomic_mem)
module Stamped_atomic : module type of Stamped (Lf_kernel.Atomic_mem)
