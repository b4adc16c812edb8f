(** Real atomics with per-domain cost-model counters.

    Each domain that touches a structure built over this memory gets its own
    {!Counters.t} through domain-local storage, so counting adds no
    synchronization to the hot path.  Counters are registered globally;
    collect them with {!grand_total} after joining the worker domains. *)

include Mem.S with type 'a aref = 'a Atomic.t

val grand_total : unit -> Counters.t
(** Sum over every domain that ever touched a structure.  Only meaningful at
    quiescence. *)

val reset_all : unit -> unit
(** Reset every registered domain's counters. *)
