(** Bounded single-writer ring buffer: when full, the oldest element is
    overwritten and {!dropped} incremented, so a collected trace is a
    window ending at collection time with an exact account of lost
    history.  No synchronization — one ring per domain-local recorder
    state, read at quiescence. *)

type 'a t

val create : capacity:int -> 'a -> 'a t
(** [create ~capacity dummy]: [dummy] fills never-written slots.
    @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** O(1); overwrites the oldest element (counting it dropped) when full. *)

val length : 'a t -> int
(** Number of retained elements, [<= capacity]. *)

val dropped : 'a t -> int
(** Elements overwritten since creation (or the last {!clear}). *)

val clear : 'a t -> 'a -> unit
(** Forget everything (refilling slots with the given dummy). *)

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)
