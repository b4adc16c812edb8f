(** Workload drivers for structures living in the simulator's memory.

    The structure under test is passed as a {!Dict.t} already specialized
    to a [Sim_mem]-instantiated dictionary; each simulated process runs a seeded
    random operation mix bracketed by [Sim.op_begin]/[op_end], the harness
    maintaining the current size so every operation record carries its
    n(S).  Feeds EXP-1 and the randomized correctness tests. *)

val run_mixed :
  ?policy:Lf_dsim.Sim.policy ->
  ?initial_size:int ->
  ?keygen:(int -> Keygen.t) ->
  procs:int ->
  ops_per_proc:int ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  Dict.t ->
  Lf_dsim.Sim.result
(** Run [procs] processes, each performing [ops_per_proc] operations.
    [initial_size] is the number of keys already present (from
    {!prefill}).  [keygen] maps a process id to its key generator
    (default: every process draws uniformly from [\[0, key_range)]); pass
    a closure returning one shared [Keygen.ascending ()] for the global
    ascending-key workload. *)

val prefill : key_range:int -> count:int -> seed:int -> Dict.t -> int
(** Insert [count] distinct keys via a single simulated process; returns
    the number inserted (= [count]). *)

val run_recorded :
  ?policy:Lf_dsim.Sim.policy ->
  procs:int ->
  ops_per_proc:int ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  Dict.t ->
  Lf_lin.History.t
(** As {!run_mixed}, additionally recording every operation with
    scheduler-order invocation/return ticks for the linearizability
    checker. *)

(** {1 Chaos in the simulator (EXP-18)}

    Deterministic counterpart of {!Runner.run_chaos}: the caller wraps the
    structure's memory in [Lf_fault.Fault_mem.Make (Sim_mem)] and installs
    a fault plan; faults then hit exact protocol points (e.g. between
    TRYFLAG and TRYMARK) and every run is replayable from the seeds. *)

type sim_chaos_report = {
  sc_procs : int;
  sc_steps : int;
  sc_completed : int array;  (** operations completed per process *)
  sc_crashed : Lf_dsim.Sim.pid list;
      (** processes stopped mid-operation by an injected [Fault.Crashed] *)
  sc_starved : (Lf_dsim.Sim.pid * int) list;
      (** processes parked by the watchdog, with the step count their
          over-budget operation had reached *)
  sc_watchdog_tripped : bool;
  sc_step_budget : int;
  sc_helps : int;  (** helping events summed over all processes *)
  sc_injected : int;  (** injected-fault delta from the caller's sampler *)
}

val run_chaos_sim :
  ?policy:Lf_dsim.Sim.policy ->
  ?initial_size:int ->
  ?step_budget:int ->
  ?max_steps:int ->
  ?injected:(unit -> int) ->
  procs:int ->
  ops_per_proc:int ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  Dict.t ->
  sim_chaos_report
(** As {!run_mixed}, under a fault plan and a starvation watchdog: a
    process spending more than [step_budget] (default 5000) shared-memory
    steps inside one operation is parked with {!Lf_dsim.Sim.crash} and
    reported in [sc_starved] — so a non-lock-free structure (the [No_help]
    mutant, say, spinning behind a crashed flag holder) produces a
    diagnosis instead of running the scheduler forever.  A process whose
    body is unwound by [Fault.Crashed] stops without [op_end] — its open
    operation is folded into the records with [completed = false], and its
    flags/marks stay behind for survivors to help.  Invariants are not
    checked here; see [Lf_check.Check_mem.check_crash_residue]. *)
