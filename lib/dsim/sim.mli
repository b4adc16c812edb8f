(** Deterministic scheduler for processes whose shared-memory accesses go
    through {!Sim_mem}.

    A simulation runs an array of process bodies cooperatively: each
    scheduler iteration picks one process and resumes it, which executes
    exactly one pending shared-memory action (read / write / C&S / pause)
    plus the private computation up to its next one.  The run is a pure
    function of the policy (and its seed), which is what makes adversarial
    schedules constructible and every experiment replayable.

    The scheduler also keeps the books for the paper's Section 3.4 cost
    model: per-process {!Lf_kernel.Counters.t}, and per-{e operation} records
    carrying the essential-step count, the harness-supplied n(S), and the
    point contention c(S) observed while the operation ran. *)

type pid = int

(** Everything accounted for one operation (between {!op_begin} and
    {!op_end}). *)
type op_record = {
  op_pid : pid;
  op_index : int;  (** per-process sequence number, from 0 *)
  n_at_start : int;  (** n(S), supplied by the harness at [op_begin] *)
  mutable c_max : int;  (** c(S): max concurrent operations while active *)
  mutable essential : int;
      (** C&S attempts + backlink traversals + next/curr updates *)
  mutable op_cas_attempts : int;
  mutable op_backlinks : int;
  mutable op_next_updates : int;
  mutable op_curr_updates : int;
  mutable op_aux_steps : int;
  mutable op_reads : int;
  mutable completed : bool;
      (** [false] for operations still open when the run ended *)
}

type state
(** Opaque simulator state, inspectable by custom policies. *)

type policy =
  | Round_robin
  | Random of int  (** seeded uniform choice among runnable processes *)
  | Custom of (state -> pid option)
      (** full adversarial control; return [None] to stop the run *)

type result = {
  steps : int;  (** shared-memory actions executed *)
  per_proc : Lf_kernel.Counters.t array;
  ops : op_record list;
      (** completion order; unfinished operations appended at the end *)
}

(** {1 State inspection (for custom policies, tests and benches)} *)

val is_finished : state -> pid -> bool

val pending_kind : state -> pid -> Sim_effect.step_kind option
(** What the process will do when next scheduled ([None] if it has not
    started or has finished). *)

val pending_access : state -> pid -> Sim_effect.step option
(** The full pending step, footprint included: which cell the process will
    touch when next scheduled and how.  [None] if the process has not
    started (its first slice runs only private code up to its first
    shared-memory access) or has finished.  This is the per-operation
    dependency information the DPOR model checker ([Lf_model]) schedules
    by. *)

val ops_completed : state -> pid -> int
val in_operation : state -> pid -> bool
val active_ops : state -> int
val counters : state -> pid -> Lf_kernel.Counters.t
val total_steps : state -> int

val runnable : state -> pid list
(** Unfinished, uncrashed processes, in pid order. *)

(** {1 Crashing (the paper's failure model)} *)

val crash : state -> pid -> unit
(** Permanently stop scheduling [pid]: its continuation is dropped
    mid-protocol, so whatever flags/marks it published stay in the
    structure for the survivors' helping routines.  Any operation it had
    open is folded into the result's records with [completed = false].
    Call from a policy or [on_step], between slices. *)

val is_crashed : state -> pid -> bool

val last_step : state -> (pid * Sim_effect.step_kind) option
(** The most recently executed shared-memory action (what an [on_step]
    callback is being notified about); [None] before the first action. *)

(** One executed shared-memory action with its dependency footprint.
    [a_cas_ok] is [Some outcome] for C&S steps - a failed C&S wrote
    nothing, so dependency analyses may treat it as a read - and [None]
    otherwise. *)
type access = {
  a_pid : pid;
  a_step : Sim_effect.step;
  a_cas_ok : bool option;
}

val last_access : state -> access option
(** Like {!last_step}, with the footprint and C&S outcome.  Not updated by
    launch slices (which execute no shared-memory action). *)

(** {1 Operation boundaries (called from process bodies)} *)

val op_begin : n:int -> unit
(** Open an operation; [n] is the structure size n(S) for the cost model. *)

val op_end : unit -> unit

val running_pid : unit -> pid option
(** The pid whose slice is executing right now, for observers living inside
    the simulated processes (checked memories attributing protocol events
    and races).  [None] outside any slice — in particular under {!quiet},
    whose accesses are setup/observation, not part of the execution. *)

val virtual_now : unit -> int
(** Virtual clock of the innermost running simulation: the number of
    shared-memory steps executed so far.  A pure function of the schedule,
    which is what makes simulator traces (the lf_obs recorder's timestamps)
    byte-identical across reruns of the same seed.  Reset to [0] at {!run}
    entry and restored around nested runs; reads [0] outside any run. *)

(** {1 Running} *)

exception Step_budget_exhausted of int

val quiet : (unit -> 'a) -> 'a
(** Run [f] with simulator-memory effects executed silently and immediately:
    no scheduling, no accounting.  This is how observers (invariant checkers
    inside [on_step], validators after {!run}, setup code) may touch
    structures built over {!Sim_mem} from outside a simulated process. *)

val run :
  ?policy:policy ->
  ?max_steps:int ->
  ?on_step:(state -> pid -> unit) ->
  (pid -> unit) array ->
  result
(** Run the processes to completion (or until a [Custom] policy stops, or
    [max_steps] is exceeded).  [on_step] is called after every executed
    shared-memory action - use {!quiet} inside it to inspect structures.
    @raise Step_budget_exhausted when [max_steps] (default 5*10^7) is hit. *)

(** {1 Cost-model aggregates (EXP-1)} *)

val total_essential : result -> int
(** Sum of essential steps over all operations. *)

val bound_sum : result -> int
(** The paper's bound candidate: sum over operations of (n(S) + c(S)). *)
