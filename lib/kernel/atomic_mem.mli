(** Production memory: plain [Atomic.t] cells; cost-model events are erased
    so the hot path pays nothing for the instrumentation hooks.

    [make], [get] and [event] are declared as the Stdlib primitives
    themselves, so a caller that names this module directly (the shipped
    [Atomic_int] instances, which bind [M] to it) compiles them inline even
    when the library is built [-opaque], as dune's dev profile does: a read
    is one load and an event is nothing.  Code that reaches this module
    through a functor argument still calls them as closures.  The rest run
    once per C&S or insert, not once per search step, and stay functions. *)

type 'a aref = 'a Atomic.t

external make : 'a -> 'a aref = "%makemutable"
external get : 'a aref -> 'a = "%atomic_load"
val cas : 'a aref -> kind:Mem_event.cas_kind -> expect:'a -> 'a -> bool
val set : 'a aref -> 'a -> unit
external event : Mem_event.t -> unit = "%ignore"
val pause : int -> unit
val stamp : 'a aref -> int
val annotate : 'a aref -> 'a Protocol.annot -> unit
