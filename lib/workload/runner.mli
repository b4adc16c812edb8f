(** Multi-domain workload driver over any {!Lf_kernel.Dict_intf.S}
    implementation: throughput runs (EXP-4/5/11) and short recorded bursts
    whose histories feed the linearizability checker (EXP-10).

    Two-vCPU caveat: this development machine runs two domains in
    parallel and time-shares any more, so throughput numbers measure
    synchronization overhead and robustness to preemption rather than
    parallel speedup (DESIGN.md). *)

module type INT_DICT = Lf_kernel.Dict_intf.S with type key = int
module type INT_DICT_BATCHED = Lf_kernel.Dict_intf.BATCHED with type key = int

type throughput = {
  impl : string;
  domains : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_s : float;
}

val prefill : key_range:int -> fill:int -> seed:int -> (int -> bool) -> unit
(** Insert random keys through the supplied closure until the structure
    holds [fill]% of [key_range] distinct keys. *)

val run_throughput :
  ?keygen:(int -> Keygen.t) ->
  (module INT_DICT) ->
  domains:int ->
  ops_per_domain:int ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  unit ->
  throughput
(** Prefill to 50%, barrier-start [domains] domains, run the mix, join,
    validate invariants, report ops/s.  Each operation calls the module
    directly, with no closure in between.  [keygen] maps a domain index to its
    key generator (default: uniform over [\[0, key_range)]); each domain
    must get its own generator, since generators are not thread-safe. *)

val run_throughput_batched :
  (module INT_DICT_BATCHED) ->
  domains:int ->
  ops_per_domain:int ->
  batch:int ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  unit ->
  throughput
(** As {!run_throughput} with uniform keys, but the op stream is issued
    [batch] operations at a time through the batched entry points (chunks
    partitioned by kind).
    @raise Invalid_argument if [batch <= 0]. *)

val run_recorded :
  (module INT_DICT) ->
  domains:int ->
  ops_per_domain:int ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  unit ->
  Lf_lin.History.t
(** Short recorded burst for the linearizability checker: a fresh
    instance through {!run_chaos_recorded} with no fault plan, then its
    invariants.  Keep it short: the checker's search grows exponentially
    with how many operations overlap. *)

(** {1 Chaos runs (EXP-18)}

    Multi-domain stress under an injected-fault plan (see {!Lf_fault}).
    The structure under test arrives as a {!Dict.t} so callers can stack
    any memory — typically [Lf_fault.Fault_mem.Make (Atomic_mem)] with a plan
    installed before the call and uninstalled after the joins. *)

type chaos_report = {
  c_impl : string;
  c_domains : int;
  c_window_s : float;  (** measured length of the throughput window *)
  c_budget_s : float;  (** per-operation latency budget *)
  c_ops : int array;  (** per-lane operations completed within the window *)
  c_crashed : int list;  (** lanes stopped by an injected [Fault.Crashed] *)
  c_worst_latency_s : float array;  (** per-lane worst observed op latency *)
  c_starved : (int * float) list;
      (** non-victim lanes whose worst latency exceeded the budget *)
  c_watchdog_tripped : bool;  (** [c_starved <> []] *)
  c_survivors : int;  (** lanes neither crashed nor victims *)
  c_survivor_ops : int;
  c_survivor_ops_per_s : float;
      (** graceful-degradation metric: throughput of the surviving lanes *)
  c_counters : (string * int) list;
      (** deltas of the caller-supplied [sample] counters over the run *)
}

val pp_chaos_report : Format.formatter -> chaos_report -> unit

val run_chaos :
  ?victims:(int * (unit -> unit)) list ->
  ?budget_s:float ->
  ?window_s:float ->
  ?sample:(unit -> (string * int) list) ->
  name:string ->
  Dict.t ->
  domains:int ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  unit ->
  chaos_report
(** Prefill to 50%, barrier-start [domains] worker lanes plus a monitor,
    run the mix for [window_s] (default 0.2s) and report.  Instead of
    joining blindly, the monitor polls per-lane heartbeats, so a lane
    blocked past [budget_s] (default 0.05s) is {e reported} as starved
    rather than hanging the harness.  A lane that raises
    [Lf_fault.Fault.Crashed] stops and is listed in [c_crashed]; its
    half-done operation stays in the structure for survivors to help.

    [victims] maps a lane index to a closure run {e instead of} the
    workload (e.g. a [with_lock_held] stall); victim lanes are excluded
    from starvation reporting and from survivor throughput.  Victim
    closures must terminate on their own — OCaml domains cannot be killed,
    so model a crashed lock holder as a stall well past the budget.

    [sample] is read before and after the run; deltas are reported in
    [c_counters] (e.g. helping counters from a counting memory, injected
    faults from [Fault_mem.injected]).

    Worker lanes are numbered [0 .. domains-1] (via [Lf_kernel.Lane]); the
    prefill and the monitor run on lane [-1], so lane-targeted fault rules
    never hit them.  Rules with [lane = None] do apply to the prefill —
    avoid untargeted [Crash] rules here.

    The structure's invariants are {e not} checked afterwards: crash
    residue (a flagged predecessor, a marked-but-linked victim) is
    legitimate here — use [Lf_check.Check_mem.check_crash_residue] for
    what a crash may leave behind. *)

(** {1 Open-loop overload runs (EXP-20)}

    Closed-loop drivers (everything above) slow their offered load down
    to whatever the system can absorb, which hides overload behaviour.
    Here arrivals are paced by a fixed rate regardless of completions:
    requests queue, queues grow, and the served fraction plus the
    arrival-to-completion latency tail show how the service copes.

    The system under test arrives as a [serve] closure so this module
    stays agnostic of [lib/svc] (EXP-20 wraps an {!Lf_svc.Svc.t};
    baselines wrap the bare dictionary). *)

type verdict = [ `Served of bool | `Rejected | `Failed ]

(** Per-class verdict counts (see [run_open_loop]'s [class_of]): the
    per-shard partial-failure accounting of EXP-23.  Every handled
    arrival lands in exactly one counter of its class — nothing is
    collapsed across classes and nothing is dropped. *)
type class_counts = {
  cc_handled : int;
  cc_served : int;
  cc_served_ok : int;
  cc_rejected : int;
  cc_failed : int;
}

type open_loop_report = {
  o_offered : int;  (** arrivals generated during the window *)
  o_handled : int;  (** arrivals a worker handed to [serve] *)
  o_served : int;  (** [`Served _] verdicts *)
  o_served_ok : int;  (** of which [`Served true] *)
  o_rejected : int;
  o_failed : int;
  o_leftover : int;
      (** still queued when the window closed — counted, never silent *)
  o_elapsed_s : float;
  o_goodput : float;  (** served per second of window *)
  o_latency : Lf_obs.Hist.t;
      (** arrival-to-completion latency of served requests, ns *)
  o_by_class : class_counts array;
      (** index = class id; [[||]] unless [classes] was given *)
}

val run_open_loop :
  ?workers:int ->
  ?keygen:Keygen.t ->
  ?classes:int ->
  ?class_of:(Opgen.op -> int) ->
  rate:int ->
  window_s:float ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  serve:(arrival_ns:int -> queue_depth:int -> Opgen.op -> verdict) ->
  unit ->
  open_loop_report
(** Offer [rate] operations per second for [window_s] seconds into an
    unbounded queue drained by [workers] (default 2) domains; admission
    control belongs to [serve] (which sees the queue depth it was popped
    ahead of, and the arrival timestamp in [Clock.real] ticks, i.e.
    nanoseconds: the tick the arrival was due at, [rate] apart, however
    late the generator enqueued it).  The generator never blocks on completions: when it
    falls behind it enqueues the whole backlog at once, preserving the
    open-loop arrival count.  Workers stop at window close; the
    remaining queue is reported as [o_leftover].  Latency is measured
    from {e arrival}, so queueing delay is included — the open-loop
    convention.  Worker lanes are numbered [0 .. workers-1]; the
    generator runs on lane [-1].

    [keygen] replaces the default uniform generator (the generator is
    single-threaded, so one instance suffices).  [classes]/[class_of]
    turn on per-class accounting: [class_of op] must return a class id
    in [[0, classes)] — EXP-23 classifies by owning shard — and the
    report's [o_by_class] then carries one {!class_counts} per class,
    tallied with plain per-worker counters (race-free, no locks in the
    hot loop). *)

val run_chaos_recorded :
  Dict.t ->
  domains:int ->
  ops_per_domain:int ->
  key_range:int ->
  mix:Opgen.mix ->
  seed:int ->
  unit ->
  Lf_lin.History.t * Lf_lin.History.t
(** Recorded burst under a fault plan: [(completed, pending)].  A lane hit
    by an injected crash stops there; its interrupted operation is returned
    in [pending] with [ret = max_int].  Keep it short, as for
    {!run_recorded}. *)

val linearizable_with_pending :
  ?init:Lf_lin.Checker.IntSet.t ->
  Lf_lin.History.t ->
  Lf_lin.History.t ->
  bool
(** [linearizable_with_pending history pending] holds iff some resolution
    of the pending (crashed) operations linearizes: each pending operation
    either never took effect, or took effect — directly or completed by a
    helper — with either outcome.  Tries 3{^c} combinations for [c] pending
    entries; keep [c] tiny. *)
