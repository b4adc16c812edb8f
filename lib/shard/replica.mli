(** Lagged read replicas for designated slots: a secondary shard keeps
    a copy of a slot's keyspace, fed asynchronously from a per-slot
    apply journal, so reads can fail over when the primary is sick —
    with an {e explicit} staleness contract.

    The data flow: every successful write to a replicated slot is
    {!record}ed (a journal entry stamped with the write's tick); an
    applier — the supervisor's tick, or any caller of {!apply} — drains
    entries into the replica's copy of the slot; {!read} answers from
    that copy together with its current lag (ticks behind the oldest
    unapplied entry, [0] when drained).  Callers must surface the lag:
    the router maps every replica read to [Svc.Served_stale], never a
    bare [Served], even at lag [0] — a failover read is stale by
    contract because the journal is asynchronous.

    Each copy is an ordered map owned by this module: it is {e not} a
    shard backend, so the conservation invariant (each key lives on
    exactly one shard) is untouched until {!Router.promote} copies a
    replica into a real backend and {!remove_slot} retires it.  Being
    ordered, it answers the successor query ({!next_key}) a promotion
    walks once the primary is dead.

    Synchronization: one mutex over all journals, copies and counters —
    a copy is only ever touched under it. *)

type op = Put of int * int | Del of int

type t

val create : unit -> t

val add_slot : t -> slot:int -> on:int -> unit
(** Start replicating [slot] into an empty copy hosted on shard [on]
    (the promotion target).  A slot that already holds keys is seeded
    by {!record}ing them and {!apply}ing.
    @raise Invalid_argument if already replicated. *)

val host : t -> slot:int -> int option
(** The shard hosting [slot]'s copy, if the slot is replicated. *)

val replicated : t -> slot:int -> bool

val record : t -> slot:int -> now:int -> op -> unit
(** Journal a successful primary write (no-op for unreplicated slots).
    [now] stamps the entry; it is what {!read}'s lag counts from. *)

val apply : ?budget:int -> t -> int
(** Drain up to [budget] journal entries (default: all) into the
    copies, oldest first per slot.  A [Put] applies the way the
    dictionaries' insert does: a key already in the copy keeps its
    value.  Returns entries applied.
    This is the async half of the replication: call it from a paced
    tick, never inline with the write. *)

val drain : t -> slot:int -> int
(** Apply everything pending for [slot] — the promotion barrier: after
    [drain] the copy reflects every recorded write.  Returns entries
    applied. *)

val read : t -> slot:int -> key:int -> now:int -> (int option * int) option
(** [read t ~slot ~key ~now] is [None] when [slot] is unreplicated,
    otherwise [Some (value, lag_ticks)] from the copy.  [lag_ticks] is
    [now] minus the oldest pending entry's record tick ([0] when the
    journal is drained) — the bound on how far the answer trails the
    primary. *)

val peek : t -> slot:int -> key:int -> int option
(** Control-plane read of the copy for promotion — does not count as a
    failover read and carries no staleness tag; callers must have
    {!drain}ed first if they need the copy current. *)

val next_key : t -> slot:int -> int -> int option
(** [next_key t ~slot k] is the smallest key [>= k] in [slot]'s copy
    ([None] past the last one, or when the slot is unreplicated) — the
    successor query {!Router.promote} walks once the primary is dead.
    A control-plane read like {!peek}. *)

val remove_slot : t -> slot:int -> unit
(** Stop replicating [slot] (after promotion made the copy
    authoritative, or to retire a replica). *)

type slot_stats = {
  s_slot : int;
  s_on : int;
  s_pending : int;  (** journal entries not yet applied *)
  s_applied : int;  (** journal entries applied, lifetime *)
  s_lag : int;  (** current lag in ticks, [0] when drained *)
}

val stats : t -> now:int -> slot_stats list
(** Per-slot status, ascending by slot — the REPLICAS wire verb. *)

val reads : t -> int
(** Failover reads answered from replicas (every one stale-tagged). *)
