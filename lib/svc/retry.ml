(* Retry policy (per-call backoff curve) and retry budget (per-client
   token bucket, updated in place by [take]).  Both act on ticks and RNG
   draws only. *)

type policy = { max_attempts : int; base_delay : int; max_delay : int }

let policy ?(max_attempts = 4) ?(base_delay = 1000) ?max_delay () =
  if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts < 1";
  if base_delay < 0 then invalid_arg "Retry.policy: negative base_delay";
  let max_delay =
    match max_delay with
    | Some d -> if d < 0 then invalid_arg "Retry.policy: negative max_delay" else d
    | None -> 100 * base_delay
  in
  { max_attempts; base_delay; max_delay }

(* Full jitter (uniform over the whole capped-exponential envelope):
   failed-together clients draw independent delays, so they do not retry
   together — the convoy breaker.  The shift is clamped so the envelope
   cannot overflow before the cap applies. *)
let delay p rng ~attempt =
  if attempt < 1 then invalid_arg "Retry.delay: attempt < 1";
  if p.base_delay = 0 then 0
  else
    let shift = min (attempt - 1) 30 in
    let cap = min (p.base_delay lsl shift) p.max_delay in
    if cap <= 0 then 0 else Lf_kernel.Splitmix.int rng (cap + 1)

module Budget = struct
  type config = { capacity : int; refill_every : int }

  let config ?(capacity = 64) ?(refill_every = 0) () =
    if capacity < 0 then invalid_arg "Budget.config: negative capacity";
    if refill_every < 0 then invalid_arg "Budget.config: negative refill_every";
    { capacity; refill_every }

  let unlimited = { capacity = max_int; refill_every = 0 }

  type t = {
    cfg : config;
    mutable tokens : int;
    mutable last_refill : int;  (* tick of the most recent credited refill *)
    mutable spent : int;
  }

  let create cfg ~now = { cfg; tokens = cfg.capacity; last_refill = now; spent = 0 }

  (* Whole refill periods elapsed by [now], credited only while the
     bucket is below capacity. *)
  let earned b ~now =
    if b.cfg.refill_every = 0 || b.tokens >= b.cfg.capacity then 0
    else
      let elapsed = now - b.last_refill in
      if elapsed < b.cfg.refill_every then 0 else elapsed / b.cfg.refill_every

  let tokens b ~now = min b.cfg.capacity (b.tokens + earned b ~now)

  (* Credit whole elapsed refill periods; the bucket never exceeds
     capacity and [last_refill] advances only by credited periods, so no
     fractional refill time is lost or double-counted. *)
  let take b ~now =
    let e = earned b ~now in
    if e > 0 then begin
      b.tokens <- min b.cfg.capacity (b.tokens + e);
      b.last_refill <- b.last_refill + (e * b.cfg.refill_every)
    end;
    if b.tokens > 0 then begin
      b.tokens <- b.tokens - 1;
      b.spent <- b.spent + 1;
      true
    end
    else false

  let spent b = b.spent
end
