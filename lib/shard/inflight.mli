(** Per-key in-flight counts: an open-addressing table over two int
    arrays, probed linearly from a key's hashed home slot, with
    backward-shift deletion (no tombstones).  A slot whose count is 0 is
    empty, so every int is a key, [min_int] and [max_int] included.

    Marking and unmarking a key allocates nothing; the table allocates
    only when it grows, which keeps it at most half full.  Not
    synchronized: the router uses it under its mutex. *)

type t

val create : int -> t
(** A table sized for about [n] keys before it first grows. *)

val incr : t -> int -> unit
(** One more operation in flight on the key. *)

val decr : t -> int -> unit
(** One fewer; the key leaves the table at 0.  No effect on a key that
    is not in it. *)

val count : t -> int -> int
(** Operations in flight on the key (0 when absent). *)

val mem : t -> int -> bool
(** [count t k > 0]. *)

val length : t -> int
(** Keys in the table. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds [f key count] over every key in the table, in
    slot order. *)

val capacity : t -> int
(** Slots in the table: a power of two, at least twice {!length}. *)

val home : t -> int -> int
(** The slot a key's probe starts from, below {!capacity}: keys with the
    same home collide. *)
