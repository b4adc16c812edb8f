(** Multi-window SLO burn-rate tracking.

    An SLO is a target good-request ratio (e.g. 0.999).  The error
    budget is [1 - target]; the {e burn rate} over a window is the
    observed bad ratio divided by the budget — 1.0 means the budget is
    being spent exactly as fast as it accrues, 10x means ten times
    faster (the classic fast-burn page threshold).  Observations land
    in a ring of fixed-width tick buckets, so queries over any
    configured window are O(buckets) with no per-request allocation
    beyond a bucket rollover.

    Ticks come from the caller's clock (the [Clock] seam in the serve
    layer), so under a manual or simulated clock the burn math is
    deterministic. *)

type t

val create :
  ?fast_threshold:float ->
  target:float ->
  bucket:int ->
  windows:int list ->
  unit ->
  t
(** [create ~target ~bucket ~windows ()]: [target] is the good-ratio
    objective in (0, 1); [bucket] the bucket width in ticks; [windows]
    the query windows in ticks (at least one; the smallest is the
    fast-burn window).  [fast_threshold] (default 10.0) is the burn
    rate at which {!fast_burn} trips.
    @raise Invalid_argument on an empty window list, a window smaller
    than the bucket, or a target outside (0, 1). *)

val observe : t -> now:int -> good:int -> bad:int -> unit
(** Count [good] and [bad] requests (both [>= 0]) that completed at
    [now]: a wire line's outcomes land in one call. *)

val burn_rate : t -> now:int -> window:int -> float
(** [bad / (good + bad) / (1 - target)] over the window; 0.0 when
    nothing was observed. *)

val fast_burn : t -> now:int -> bool
(** Burn over the smallest configured window at or above the
    threshold — the flight recorder's SLO anomaly trigger. *)

val line : t -> now:int -> string
(** One-line rendering for the wire protocol's SLO verb:
    [SLO target=<t> fast_burn=<b> w<ticks>:burn=<r>:good=<g>:bad=<b> ...].
    Deterministic given the observation history and [now]. *)
