(** The service layer's clock seam.

    Every policy decision in [lib/svc] — deadline checks, retry-budget
    refills, breaker window rotation and open-timeouts — reads time
    through a {!t} injected at construction, never from the system
    directly.  That is what keeps every policy decision a function of
    (clock reads, RNG draws): under {!sim} the tick is the
    deterministic scheduler step counter, so the same seed replays the
    same admit/reject/retry sequence, and the structures underneath stay
    clean under the [no-timing-in-structures] lint (the clock lives
    {e above} the memory seam; see DESIGN.md §10).

    Ticks are dimensionless non-negative integers; {!ms} converts
    operator-facing millisecond configuration (e.g. [lfdict serve
    --deadline-ms]) into whatever unit the installed clock advances
    in. *)

type t

val now : t -> int
(** Current tick.  Monotone for the clocks below. *)

val ms : t -> int -> int
(** [ms c n] is [n] milliseconds in ticks: [n] times the clock's ticks
    per millisecond. *)

val real : unit -> t
(** Wall clock in nanoseconds ([ticks_per_ms = 1_000_000]). *)

val sim : ?ticks_per_ms:int -> unit -> t
(** [Lf_dsim.Sim.virtual_now]: the innermost running simulation's
    shared-memory step counter — a pure function of the schedule.
    [ticks_per_ms] defaults to 100 steps (only used to scale
    millisecond-denominated configuration; pick what the scenario
    needs). *)

val manual : ?ticks_per_ms:int -> ?start:int -> unit -> t * (int -> unit)
(** A clock the test drives by hand: [(clock, advance)].  [advance d]
    moves it forward by [d >= 0] ticks ([ticks_per_ms] defaults to 1). *)
