(** Per-domain predecessor cache for hint-guided searches.

    The paper's search machinery (Section 3.2) accepts any starting node
    that is unmarked with key [<=] the target, and recovers from marked
    nodes through backlinks — so the structures may begin a search at a
    cached predecessor instead of the head whenever the cache survives
    validation.  This module is only the cache: one domain-local slot per
    [Domain], per structure instance, plus hit/stale/miss accounting.
    Validation is the structure's job.

    Generic over {!Mem.S} purely for observability: cache traffic is
    emitted as [Mem_event.User] annotations ([hint:hit], [hint:stale],
    [hint:miss], [hint:store]), which are never scheduling points, so the
    cache behaves identically on real atomics and in the simulator. *)

(** Per-domain counters, summed over domains by {!Make.totals}. *)
type stats = {
  mutable hits : int;  (** hint validated and used as the search start *)
  mutable stale : int;  (** hint present but failed validation *)
  mutable misses : int;  (** no hint cached in this domain yet *)
  mutable stores : int;  (** publications of a fresh predecessor *)
}

module Make (M : Mem.S) : sig
  type 'a t
  (** A cache of ['a] values (typically a node pointer), one slot per
      domain.  Belongs to exactly one structure instance. *)

  val create : unit -> 'a t

  val load : 'a t -> 'a option
  (** The calling domain's cached value, if any.  Pure read; pair with
      {!note_hit} / {!note_stale} after validating. *)

  val store : 'a t -> 'a -> unit
  (** Publish a fresh predecessor in the calling domain's slot. *)

  val clear : 'a t -> unit
  (** Drop the calling domain's cached value. *)

  val note_hit : 'a t -> unit
  (** Record that a loaded hint passed validation. *)

  val note_stale : 'a t -> unit
  (** Record that a loaded hint failed validation.  Does not drop the
      value: a caller for whom staleness means a dead node drops it
      itself with {!clear}. *)

  val note_miss : 'a t -> unit
  (** Record that no hint was cached. *)

  val totals : 'a t -> stats
  (** Sum of every domain's counters.  Quiescent use only. *)
end
