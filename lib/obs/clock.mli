(** The one clock.  Every reader of time in the tree — the recorder's
    spans and events, the service layer's policies (as [Lf_svc.Clock]),
    the workload runner and the bench timers — reads ticks through a
    {!t}, never from the system directly.  So a clock change cannot split
    one layer's stamps from another's, and under {!Sim_steps} every
    policy decision and every recorded stamp is a function of the
    schedule: the same seed replays the same run.  Structure code reads
    no clock at all (the [no-timing-in-structures] lint); it is observed
    from outside, through [Trace_mem] at the memory seam.

    Ticks are non-decreasing integers; {!ms} converts operator-facing
    millisecond configuration (e.g. [lfdict serve --deadline-ms]) into
    the unit the clock advances in. *)

type t =
  | Real
      (** Monotonic time in nanoseconds ([clock_gettime(CLOCK_MONOTONIC)]
          through bechamel's [noalloc] stub): never steps back, resolves
          tens of nanoseconds, and a read allocates nothing. *)
  | Sim_steps
      (** {!Lf_dsim.Sim.virtual_now}: the innermost running simulation's
          shared-memory step counter, a pure function of the schedule. *)
  | Manual of (unit -> int)  (** Whatever the closure returns. *)

val now : t -> int
(** The current tick. *)

val ms : t -> int -> int
(** [ms c n] is [n] milliseconds in ticks of [c]: 1,000,000 per ms for
    {!Real}, 100 simulator steps for {!Sim_steps}, 1 for {!Manual}. *)

val real : unit -> t
val sim : unit -> t

val manual : unit -> t * (int -> unit)
(** A clock the test drives by hand, starting at 0: [(clock, advance)].
    [advance d] moves it forward by [d] ticks.
    @raise Invalid_argument if [d < 0]. *)
