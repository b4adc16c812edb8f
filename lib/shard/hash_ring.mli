(** Seeded consistent-hash ring over a fixed set of shard slots.

    The ring is a pure value: [slot_of] is a function of
    [(key, slots, seed)] only — the router-determinism property the
    tests pin down.  Each slot owns [vnodes] points on the ring, so
    slot keyspaces interleave finely instead of forming [slots]
    contiguous arcs.

    Ownership is indirected through an {e assignment} (slot -> shard):
    routing a key is [assignment.(slot_of key)].  A rebalance handoff
    never rehashes anything — it moves one slot's whole keyspace to
    another shard by {!reassign}, which is what makes the migrated set
    exactly enumerable (the conservation oracle). *)

type t

val create : ?vnodes:int -> seed:int -> shards:int -> unit -> t
(** A ring of [shards] slots, initially with slot [i] assigned to shard
    [i].  [vnodes] (default 64) points per slot.
    @raise Invalid_argument if [shards < 1] or [vnodes < 1]. *)

val shards : t -> int
(** Number of shards ( = number of slots). *)

val seed : t -> int

val slot_of : t -> int -> int
(** The slot owning a key: pure in [(key, shards, seed)], independent
    of the assignment. *)

val shard_of : t -> int -> int
(** [assignment.(slot_of key)] — where the key's operations go. *)

val owner : t -> int -> int
(** Current shard assigned to a slot. *)

val assignment : t -> int array
(** A copy of the slot -> shard assignment. *)

val reassign : t -> slot:int -> to_:int -> t
(** A new ring with one slot handed to another shard; the argument ring
    is unchanged.  @raise Invalid_argument on out-of-range indices. *)

(** {1 Introspection}

    A key's slot is the slot of its ring {e position}, found through a
    table indexed by the position's top bits; these expose both halves
    so tests can pin the table against a binary search. *)
module Debug : sig
  val position : t -> int -> int
  (** A key's position on the ring, in [[0, max_int]]. *)

  val points : t -> int array
  (** A copy of the ring's points, sorted ascending. *)

  val slot_at : t -> int -> int
  (** The slot owning a position in [[0, max_int]], through the table:
      [slot_of t k = slot_at t (position t k)]. *)

  val slot_at_search : t -> int -> int
  (** The same by binary search over the points: the slot owning the
      first point at or above the position, else the first point's. *)
end
