(** Bounded, jittered, budget-governed retries.

    Two separate concerns, deliberately kept apart:

    - a {!policy} says how one call may retry: attempt cap and the
      capped-exponential backoff curve, jittered from an injected
      {!Lf_kernel.Splitmix.t} stream so racing clients spread out
      instead of re-colliding in convoys;

    - a {!Budget.t} says how much retrying a {e client} may do in
      aggregate: a token bucket consulted before every retry, which is
      what prevents the classic metastable failure where an overloaded
      service's failures breed retries that breed more overload
      (EXP-20 part C measures exactly this with budgets off vs on).

    Both act on ticks and RNG draws only: no clock or sleep inside — the
    caller reads its {!Clock.t} and performs the waiting.  A budget is
    one mutable bucket that {!Budget.take} updates in place under the
    caller's lock ({!Svc}'s mutex).  The [no-unbounded-retry] lint
    enforces that every retry loop in [lib/svc] consults a budget. *)

type policy = {
  max_attempts : int;  (** total tries including the first; >= 1 *)
  base_delay : int;  (** backoff unit, ticks; >= 0 *)
  max_delay : int;  (** cap on the un-jittered curve, ticks *)
}

val policy : ?max_attempts:int -> ?base_delay:int -> ?max_delay:int -> unit -> policy
(** Defaults: 4 attempts, base 1000 ticks, cap 100x base.
    @raise Invalid_argument on a non-positive attempt cap or negative
    delay. *)

val delay : policy -> Lf_kernel.Splitmix.t -> attempt:int -> int
(** Backoff before retrying after failed attempt number [attempt]
    (1-based): full jitter — uniform in [\[0, cap\]] where
    [cap = min (base_delay * 2^(attempt-1)) max_delay]. *)

(** Per-client retry allowance: a token bucket.  One token = one retry;
    {!take} at every retry decision is what makes "tokens spent =
    retries issued" an invariant the tests can state. *)
module Budget : sig
  type config = {
    capacity : int;  (** bucket size; >= 0 *)
    refill_every : int;
        (** ticks per regained token; [0] = never refill (a hard cap
            for the whole run) *)
  }

  val config : ?capacity:int -> ?refill_every:int -> unit -> config
  (** Defaults: capacity 64, no refill. *)

  val unlimited : config
  (** Effectively boundless ([capacity = max_int]): the "budgets off"
      ablation.  The retry loop still consults it, so the code path —
      and the lint obligation — never changes, only the answer. *)

  type t

  val create : config -> now:int -> t
  val tokens : t -> now:int -> int
  (** Tokens available after refilling up to [now]: a view that leaves
      [t] as it is. *)

  val take : t -> now:int -> bool
  (** Refill up to [now] and spend one token in place; [false] (nothing
      changed apart from the refill) if the bucket is empty. *)

  val spent : t -> int
  (** Total tokens ever taken — equals retries issued under it. *)
end
