(** Per-domain predecessor cache for hint-guided searches.

    The paper's search machinery (Section 3.2) accepts any starting node
    that is unmarked with key [<=] the target, and recovers from marked
    nodes through backlinks — so the structures may begin a search at a
    cached predecessor instead of the head whenever the cache survives
    validation.  This module is only the cache: one slot per domain, owned
    by the structure instance.  Validation, accounting and publication are
    the structure's job, done through the fields of the slot an operation
    looks up once, so the hot path makes no call into this module and
    boxes nothing.

    The slots live in an array inside the cache, indexed by a small
    per-domain index that a domain hands back when it exits, so a dropped
    structure takes its slots with it.  A slot holds its value strongly:
    [Fr_list] stores a node's anchor, a box that marking the node empties,
    so no slot keeps a deleted node reachable.

    Cache traffic is observable as [Mem_event.User] annotations
    ({!ev_hit}, {!ev_stale}, {!ev_miss}, {!ev_store}), which the structure
    emits through its own memory; they are never scheduling points, so the
    cache behaves identically on real atomics and in the simulator. *)

(** Hint-cache counters: one domain's in its {!slot}, every domain's
    summed by {!totals}. *)
type stats = {
  mutable hits : int;  (** hint validated and used as the search start *)
  mutable stale : int;  (** hint present but failed validation *)
  mutable misses : int;  (** no hint cached in this domain yet *)
  mutable stores : int;  (** publications of a fresh predecessor *)
}

(** One domain's slot.  Only the domain that looked it up reads or writes
    it. *)
type 'a slot = {
  mutable value : 'a;
      (** the cached value; the cache's [empty] when nothing is cached *)
  stats : stats;  (** this domain's counters *)
}

type 'a t
(** A cache of ['a] values (typically a box that points at a node), one
    slot per domain.  Belongs to exactly one structure instance. *)

val create : empty:'a -> 'a t
(** A cache whose slots start out holding [empty], which the structure
    tells apart by physical equality: a slot holding it caches nothing. *)

val slot : 'a t -> 'a slot
(** The calling domain's slot, made on the domain's first use. *)

val totals : 'a t -> stats
(** Sum of every domain's counters.  Quiescent use only. *)

val ev_hit : Mem_event.t
(** [hint:hit]: a cached value passed validation. *)

val ev_stale : Mem_event.t
(** [hint:stale]: a cached value failed validation. *)

val ev_miss : Mem_event.t
(** [hint:miss]: nothing was cached. *)

val ev_store : Mem_event.t
(** [hint:store]: a predecessor was published. *)
