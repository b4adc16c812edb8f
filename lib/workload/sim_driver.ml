(* Workload driver for structures living in the simulator's memory.

   The structure under test is passed as a [Dict.t] (already specialized
   to a [Sim_mem]-instantiated dictionary); each simulated process runs a
   seeded random mix of operations bracketed by [Sim.op_begin]/[op_end],
   with the harness maintaining the current size so every operation record
   carries its n(S).  Used by EXP-1 (amortized-bound validation) and by the
   randomized correctness tests. *)

(* Run [procs] processes, each performing [ops_per_proc] operations.
   [initial_size] is the number of keys already in the structure (from a
   prefill), so that n(S) is accounted correctly. *)
let run_mixed ?(policy = Lf_dsim.Sim.Random 1) ?(initial_size = 0) ?keygen
    ~procs ~ops_per_proc ~key_range ~(mix : Opgen.mix) ~seed (ops : Dict.t) :
    Lf_dsim.Sim.result =
  let keygen_for =
    match keygen with
    | Some f -> f
    | None -> fun _pid -> Keygen.uniform key_range
  in
  let size = ref initial_size in
  let body pid =
    let rng = Lf_kernel.Splitmix.create (seed + (7919 * pid)) in
    let keygen = keygen_for pid in
    for _ = 1 to ops_per_proc do
      let op = Opgen.draw mix keygen rng in
      Lf_dsim.Sim.op_begin ~n:!size;
      (match op with
      | Opgen.Insert k ->
          Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Insert ~key:k;
          let ok = ops.insert k in
          if ok then incr size;
          Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Insert ~ok
      | Opgen.Delete k ->
          Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Delete ~key:k;
          let ok = ops.delete k in
          if ok then decr size;
          Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Delete ~ok
      | Opgen.Find k ->
          Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Find ~key:k;
          let ok = ops.find k in
          Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Find ~ok);
      Lf_dsim.Sim.op_end ()
    done
  in
  Lf_dsim.Sim.run ~policy (Array.make procs body)

(* Prefill [count] distinct keys drawn from [0, key_range) by a single
   simulated process (round-robin over one process = sequential). *)
let prefill ~key_range ~count ~seed (ops : Dict.t) : int =
  let inserted = ref 0 in
  let body _pid =
    let rng = Lf_kernel.Splitmix.create seed in
    while !inserted < count do
      if ops.insert (Lf_kernel.Splitmix.int rng key_range) then incr inserted
    done
  in
  ignore (Lf_dsim.Sim.run [| body |]);
  !inserted

(* Recorded variant for simulator-schedule linearizability checks: returns
   the history of every operation with invocation/return ticks in scheduler
   order. *)
let run_recorded ?(policy = Lf_dsim.Sim.Random 1) ~procs ~ops_per_proc
    ~key_range ~(mix : Opgen.mix) ~seed (ops : Dict.t) : Lf_lin.History.t =
  let rec_ = Lf_lin.Recorder.create () in
  let body pid =
    let rng = Lf_kernel.Splitmix.create (seed + (7919 * pid)) in
    let keygen = Keygen.uniform key_range in
    for _ = 1 to ops_per_proc do
      let op = Opgen.draw mix keygen rng in
      Lf_dsim.Sim.op_begin ~n:0;
      Lf_lin.Recorder.record rec_ ~pid op (fun () -> Dict.apply ops op);
      Lf_dsim.Sim.op_end ()
    done
  in
  ignore (Lf_dsim.Sim.run ~policy (Array.make procs body));
  Lf_lin.Recorder.history rec_

(* ------------------------------------------------------------------ *)
(* Chaos in the simulator: deterministic fault plans + step-budget     *)
(* starvation watchdog.                                                *)
(* ------------------------------------------------------------------ *)

type sim_chaos_report = {
  sc_procs : int;
  sc_steps : int;
  sc_completed : int array;  (* operations completed per process *)
  sc_crashed : Lf_dsim.Sim.pid list;  (* stopped by injected Fault.Crashed *)
  sc_starved : (Lf_dsim.Sim.pid * int) list;  (* parked by the watchdog *)
  sc_watchdog_tripped : bool;
  sc_step_budget : int;
  sc_helps : int;  (* helping events observed across all processes *)
  sc_injected : int;  (* faults injected, from the caller's sampler *)
}

(* The watchdog counts each process's shared-memory steps within its
   current operation; a process exceeding [step_budget] is parked with
   [Sim.crash] and reported, so a non-lock-free structure (e.g. the
   [No_help] mutant spinning behind a crashed flag holder) terminates with
   a diagnosis instead of spinning the scheduler forever.  An injected
   [Fault.Crashed] unwinds the process body without [op_end]: the process
   takes no further steps and its open operation is folded into the
   result's records with [completed = false] — exactly the paper's crashed
   process, whose flags and marks stay behind for the survivors. *)
let run_chaos_sim ?(policy = Lf_dsim.Sim.Random 1) ?(initial_size = 0)
    ?(step_budget = 5_000) ?max_steps ?(injected = fun () -> 0) ~procs
    ~ops_per_proc ~key_range ~(mix : Opgen.mix) ~seed (ops : Dict.t) :
    sim_chaos_report =
  let size = ref initial_size in
  let crashed_flags = Array.make procs false in
  let in_op_steps = Array.make procs 0 in
  let last_completed = Array.make procs 0 in
  let starved = ref [] in
  let on_step st pid =
    let done_ = Lf_dsim.Sim.ops_completed st pid in
    if done_ <> last_completed.(pid) then begin
      last_completed.(pid) <- done_;
      in_op_steps.(pid) <- 0
    end;
    if Lf_dsim.Sim.in_operation st pid then begin
      in_op_steps.(pid) <- in_op_steps.(pid) + 1;
      if
        in_op_steps.(pid) > step_budget
        && not (Lf_dsim.Sim.is_crashed st pid)
      then begin
        starved := (pid, in_op_steps.(pid)) :: !starved;
        Lf_dsim.Sim.crash st pid
      end
    end
  in
  let body pid =
    let rng = Lf_kernel.Splitmix.create (seed + (7919 * pid)) in
    let keygen = Keygen.uniform key_range in
    try
      for _ = 1 to ops_per_proc do
        let op = Opgen.draw mix keygen rng in
        Lf_dsim.Sim.op_begin ~n:!size;
        (match op with
        | Opgen.Insert k -> if ops.insert k then incr size
        | Opgen.Delete k -> if ops.delete k then decr size
        | Opgen.Find k -> ignore (ops.find k));
        Lf_dsim.Sim.op_end ()
      done
    with Lf_fault.Fault.Crashed _ -> crashed_flags.(pid) <- true
  in
  let injected_before = injected () in
  let result =
    match max_steps with
    | Some m ->
        Lf_dsim.Sim.run ~policy ~max_steps:m ~on_step (Array.make procs body)
    | None -> Lf_dsim.Sim.run ~policy ~on_step (Array.make procs body)
  in
  let completed = Array.make procs 0 in
  List.iter
    (fun (o : Lf_dsim.Sim.op_record) ->
      if o.completed then completed.(o.op_pid) <- completed.(o.op_pid) + 1)
    result.ops;
  let helps =
    Array.fold_left
      (fun acc (c : Lf_kernel.Counters.t) -> acc + c.helps)
      0 result.per_proc
  in
  let crashed = ref [] in
  for pid = procs - 1 downto 0 do
    if crashed_flags.(pid) then crashed := pid :: !crashed
  done;
  {
    sc_procs = procs;
    sc_steps = result.steps;
    sc_completed = completed;
    sc_crashed = !crashed;
    sc_starved = List.rev !starved;
    sc_watchdog_tripped = !starved <> [];
    sc_step_budget = step_budget;
    sc_helps = helps;
    sc_injected = injected () - injected_before;
  }
