(** Context-bounded systematic schedule exploration (CHESS-style,
    Musuvathi & Qadeer): re-run a small scenario under {e every} schedule
    that uses at most a given number of preemptive context switches,
    checking an oracle after each run.

    The simulator is deterministic, so a schedule is fully described by the
    pids chosen at each scheduling decision; exploration is replay-based
    depth-first search over those choices.  Switching away from a process
    that could have continued costs one unit of preemption budget; switching
    away from a finished process is free.  This covers the small-preemption
    neighbourhood of every interleaving - empirically where almost all
    concurrency bugs live - at a cost of roughly
    [(decisions * procs) ^ preemptions] replays. *)

type outcome = {
  schedules_run : int;
  truncated : bool;
      (** stopped before exhausting the bounded schedule space: at
          [max_schedules], or because [max_failures] distinct failures were
          already recorded *)
  failures : (int list * string) list;
      (** forced-choice prefix reproducing each failure, plus its message.
          One entry per {e distinct} failing schedule: prefixes that replay
          to the same full decision trace are reported once. *)
}

val run_one :
  max_steps:int ->
  (unit -> (Sim.pid -> unit) array * (unit -> (unit, string) result)) ->
  int array ->
  (Sim.pid list * Sim.pid * Sim.pid) list * (unit, string) result
(** One replay of the scenario under a forced choice prefix; returns the
    decision trace [(runnable, chosen, previously running)] and the oracle's
    verdict.  Exposed so failures found by {!run} can be replayed. *)

val run :
  ?max_preemptions:int ->
  ?max_schedules:int ->
  ?max_steps:int ->
  ?max_failures:int ->
  (unit -> (Sim.pid -> unit) array * (unit -> (unit, string) result)) ->
  outcome
(** [run mk] calls [mk ()] once per schedule; it must return fresh process
    bodies over a fresh structure, plus the oracle to evaluate after the
    run (use [Sim.quiet] inside the oracle).  The scenario must be
    deterministic: replay correctness depends on identical prefixes
    producing identical runs, so draw any randomness from a generator
    seeded inside [mk] (not from a global stream such as the skip lists'
    height RNG - use [insert_with_height]).  Defaults: 2 preemptions,
    100_000 schedules, 1_000_000 steps per run, 10 recorded failures. *)

(** {1 Crash-bounded enumeration}

    Same replay-based DFS, but a scheduling decision may also be {e crash
    process p here} ({!Sim.crash}): p is never scheduled again and whatever
    flags/marks it published stay behind for the survivors' helping
    routines.  A crash consumes one unit of crash budget and no preemption
    budget.  With [max_preemptions = 0], [max_crashes = 1] and
    [crashable = [v]], this enumerates exactly "crash v at every point of
    the default schedule"; the budgets generalize to crashes under
    preemption and to multiple failures. *)

type choice = Run of Sim.pid | Crash of Sim.pid

val choice_to_string : choice -> string

type crash_outcome = {
  c_schedules_run : int;
  c_truncated : bool;  (** stopped at [max_schedules] before exhausting *)
  c_failures : (choice list * string) list;
      (** forced-choice prefix reproducing each failure, plus its message *)
}

val run_crash :
  ?max_preemptions:int ->
  ?max_crashes:int ->
  ?crashable:Sim.pid list ->
  ?max_schedules:int ->
  ?max_steps:int ->
  ?max_failures:int ->
  (unit ->
  (Sim.pid -> unit) array * (crashed:Sim.pid list -> (unit, string) result)) ->
  crash_outcome
(** Like {!run}, with crash choices.  The oracle receives the pids crashed
    in this schedule, so it can require the survivors to have completed and
    treat the victims' operations as pending (helped to completion or never
    linearized; see DESIGN.md §8).  [crashable] defaults to every pid.
    Defaults: 0 preemptions, 1 crash, 100_000 schedules, 1_000_000 steps,
    10 recorded failures. *)
