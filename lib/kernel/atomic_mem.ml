(* Production memory: plain [Atomic.t] cells, events erased.  [make], [get]
   and [event] are the Stdlib primitives themselves, so a unit that names
   this module compiles them inline (see the interface). *)

type 'a aref = 'a Atomic.t

external make : 'a -> 'a aref = "%makemutable"
external get : 'a aref -> 'a = "%atomic_load"
let cas r ~kind:_ ~expect v = Atomic.compare_and_set r expect v
let set = Atomic.set
external event : Mem_event.t -> unit = "%ignore"

let pause_rng = Splitmix.domain_local 0x9a75e

let pause n =
  (* Bounded exponential backoff in units of [cpu_relax]: 2^min(n,8)
     base spins plus a uniform jitter of up to the same amount again
     (full spread [base, 2*base), capped at 512 spins total), drawn from
     the domain's own SplitMix stream.  Without the jitter, domains that
     fail a C&S together back off together and re-collide together —
     the convoy the backoff exists to break up.  [Sim_mem.pause] stays
     deterministic: jitter belongs to wall-clock runs only. *)
  let base = 1 lsl min n 8 in
  let spins = base + Splitmix.int (pause_rng ()) base in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

let stamp _ = 0
let annotate _ (_ : _ Protocol.annot) = ()
