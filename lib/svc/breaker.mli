(** Circuit breaker: a closed / open / half-open state machine driven by
    windowed failure and latency statistics.

    While {e closed}, every outcome is recorded into a two-bucket
    rotating window (current + previous, each [window] ticks wide, the
    standard approximation of a sliding window); a call counts as a
    failure if it raised, or if its latency exceeded
    [latency_threshold] — the latter is what lets the breaker see a
    stall-storm (PR 3 fault plans) that slows calls without failing
    them.  When the window holds at least [min_calls] observations and
    the failure share reaches [failure_pct], the breaker {e opens}: calls
    are rejected at the door for [open_for] ticks (the service sheds
    instantly instead of queueing onto a struggling structure).  After
    [open_for], the first admission becomes a {e probe} (half-open);
    [probes] consecutive probe successes close the breaker and reset the
    window, one probe failure re-opens it.

    A {!t} is one mutable record that {!admit} and {!observe} update in
    place, allocating nothing; the caller serializes them ({!Svc} holds
    its breaker under the mutex that already orders its decisions), and
    ticks come from the caller's {!Clock.t}. *)

type config = {
  window : int;  (** width of one stats bucket, ticks; > 0 *)
  min_calls : int;  (** observations required before tripping *)
  failure_pct : int;  (** trip when failures * 100 >= this * calls *)
  latency_threshold : int;
      (** a slower-than-this success still counts failed; [max_int] = off *)
  open_for : int;  (** ticks to reject before probing; > 0 *)
  probes : int;  (** consecutive probe successes needed to close; >= 1 *)
}

val config :
  ?window:int ->
  ?min_calls:int ->
  ?failure_pct:int ->
  ?latency_threshold:int ->
  ?open_for:int ->
  ?probes:int ->
  unit ->
  config
(** Defaults: window 1000, min_calls 10, failure_pct 50, latency
    threshold off, open_for 5000, probes 3.
    @raise Invalid_argument on non-positive [window]/[open_for]/[probes]
    or a [failure_pct] outside [\[0, 100\]]. *)

type kind = Closed | Open | Half_open

type t

val create : config -> now:int -> t
val state : t -> kind
val kind_to_string : kind -> string

val admit : t -> now:int -> [ `Admit | `Probe | `Reject ]
(** Closed: [`Admit].  Open: [`Reject] until [open_for] has elapsed,
    then turn half-open in place and [`Probe].  Half-open: [`Probe]
    (the caller decides how many probes to have in flight; each
    {!observe} settles one). *)

val observe : t -> now:int -> ok:bool -> latency:int -> unit
(** Record a completed call admitted by this breaker; may trip, re-open
    or close it in place. *)

val window_calls : t -> now:int -> int
val window_failures : t -> now:int -> int
(** The window's counts as of [now]: a view that leaves [t] as it is. *)
