(** Explicit degraded modes, driven by the breaker's state.

    A service that cannot give full answers should say what it {e can}
    do, not fail randomly.  The two degraded behaviours map onto
    capabilities the dictionaries already have:

    - {!Read_only}: writes are rejected (as rejections, never silent
      drops); searches keep being served even while the breaker is
      open — the FR structures' wait-free searches are exactly the
      operation that stays safe under a write-side storm.
    - {!Coalesce}: drain queued work through the PR 2 [BATCHED] entry
      points — key-sorted carry batches amortize the search cost
      precisely when the queue is long.

    The mapping is configuration ({!policy}), the decision function
    ({!mode_for}) is pure, and the mechanics live in {!Svc}. *)

type mode = Normal | Read_only | Coalesce

type policy = {
  on_open : mode;  (** mode while the breaker is open *)
  on_half_open : mode;  (** mode while probing *)
}

val policy : ?on_open:mode -> ?on_half_open:mode -> unit -> policy
(** Defaults: [Read_only] while open, [Normal] while half-open (probes
    run on the primary). *)

val mode_for : policy -> Breaker.kind -> mode
(** [Normal] when closed. *)

val mode_to_string : mode -> string
