(* Tests of the deterministic simulator: step semantics, atomicity of C&S,
   scheduling policies, determinism, and the per-operation accounting that
   EXP-1 relies on. *)

module Sim = Lf_dsim.Sim
module SM = Lf_dsim.Sim_mem
module Ev = Lf_kernel.Mem_event

(* One process incrementing a cell with CAS: counts must be exact. *)
let test_step_counting () =
  let r = SM.make 0 in
  let body _pid =
    for _ = 1 to 10 do
      let v = SM.get r in
      let ok = SM.cas r ~kind:Ev.Other_cas ~expect:v (v + 1) in
      assert ok
    done
  in
  let res = Sim.run [| body |] in
  Alcotest.(check int) "value" 10 (Sim.quiet (fun () -> SM.get r));
  let c = res.per_proc.(0) in
  Alcotest.(check int) "reads" 10 c.Lf_kernel.Counters.reads;
  Alcotest.(check int) "cas attempts" 10 (Lf_kernel.Counters.total_cas_attempts c);
  Alcotest.(check int) "cas successes" 10
    (Lf_kernel.Counters.total_cas_successes c);
  (* 10 reads + 10 cas = 20 scheduling points. *)
  Alcotest.(check int) "steps" 20 res.steps

(* Two processes CAS-incrementing the same cell: total increments conserved,
   failures possible but value exact. *)
let test_cas_atomicity () =
  let r = SM.make 0 in
  let body _pid =
    let succeeded = ref 0 in
    while !succeeded < 50 do
      let v = SM.get r in
      if SM.cas r ~kind:Ev.Other_cas ~expect:v (v + 1) then incr succeeded
    done
  in
  List.iter
    (fun seed ->
      Sim.quiet (fun () -> SM.set r 0);
      ignore (Sim.run ~policy:(Sim.Random seed) [| body; body; body |]);
      Alcotest.(check int)
        (Printf.sprintf "value seed %d" seed)
        150
        (Sim.quiet (fun () -> SM.get r)))
    [ 1; 2; 3; 42 ]

let test_determinism () =
  let run seed =
    let r = SM.make 0 in
    let body pid =
      for _ = 1 to 20 do
        let v = SM.get r in
        ignore (SM.cas r ~kind:Ev.Other_cas ~expect:v (v + pid + 1))
      done
    in
    let res = Sim.run ~policy:(Sim.Random seed) [| body; body |] in
    (Sim.quiet (fun () -> SM.get r), res.steps,
     Array.map Lf_kernel.Counters.essential_steps res.per_proc)
  in
  Alcotest.(check bool) "same seed same outcome" true (run 5 = run 5);
  (* Different seeds should usually differ in the final value or counters. *)
  let differs = run 5 <> run 6 || run 7 <> run 8 in
  Alcotest.(check bool) "different seeds explore" true differs

let test_round_robin_interleaves () =
  (* Under round-robin, two incrementers alternate reads and fail half
     their CASes: with both reading before either CASes, conflicts are
     guaranteed. *)
  let r = SM.make 0 in
  let log = ref [] in
  let body pid =
    for _ = 1 to 3 do
      let v = SM.get r in
      log := (pid, `Read v) :: !log;
      ignore (SM.cas r ~kind:Ev.Other_cas ~expect:v (v + 1))
    done
  in
  ignore (Sim.run ~policy:Sim.Round_robin [| body; body |]);
  (* First two events must be reads by process 0 then process 1. *)
  match List.rev !log with
  | (0, `Read 0) :: (1, `Read 0) :: _ -> ()
  | _ -> Alcotest.fail "round robin did not alternate initial reads"

let test_custom_policy_serializes () =
  (* A custom policy that runs process 1 to completion before process 0. *)
  let r = SM.make 0 in
  let body pid =
    let v = SM.get r in
    ignore (SM.cas r ~kind:Ev.Other_cas ~expect:v ((10 * v) + pid + 1))
  in
  let policy st =
    if not (Sim.is_finished st 1) then Some 1
    else if not (Sim.is_finished st 0) then Some 0
    else None
  in
  ignore (Sim.run ~policy:(Sim.Custom policy) [| body; body |]);
  (* p1 runs fully first: 0 -> 2; then p0: 2 -> 21. *)
  Alcotest.(check int) "serialized" 21 (Sim.quiet (fun () -> SM.get r))

let test_custom_policy_sees_pending () =
  (* The adversary can observe what a process is about to do. *)
  let r = SM.make 0 in
  let observed_cas = ref false in
  let body _pid =
    let v = SM.get r in
    ignore (SM.cas r ~kind:Ev.Insertion ~expect:v 1)
  in
  let policy st =
    (match Sim.pending_kind st 0 with
    | Some (Lf_dsim.Sim_effect.Cas Ev.Insertion) -> observed_cas := true
    | _ -> ());
    if Sim.is_finished st 0 then None else Some 0
  in
  ignore (Sim.run ~policy:(Sim.Custom policy) [| body |]);
  Alcotest.(check bool) "saw pending insertion CAS" true !observed_cas

let test_op_accounting () =
  (* Two processes, each one op; the ops overlap under round-robin, so both
     should see c_max = 2; n is whatever the harness passes. *)
  let r = SM.make 0 in
  let body pid =
    Sim.op_begin ~n:(100 + pid);
    let v = SM.get r in
    ignore (SM.cas r ~kind:Ev.Other_cas ~expect:v (v + 1));
    Sim.op_end ()
  in
  let res = Sim.run ~policy:Sim.Round_robin [| body; body |] in
  Alcotest.(check int) "two ops" 2 (List.length res.ops);
  List.iter
    (fun (op : Sim.op_record) ->
      Alcotest.(check int) "contention" 2 op.c_max;
      Alcotest.(check bool) "completed" true op.completed;
      Alcotest.(check int) "essential = cas attempts" op.op_cas_attempts
        op.essential;
      Alcotest.(check int) "n recorded" (100 + op.op_pid) op.n_at_start)
    res.ops

let test_non_overlapping_ops_contention_one () =
  let body _pid =
    for _ = 1 to 3 do
      Sim.op_begin ~n:0;
      ignore (SM.get (SM.make 0));
      Sim.op_end ()
    done
  in
  (* Single process: contention is always 1. *)
  let res = Sim.run [| body |] in
  List.iter
    (fun (op : Sim.op_record) ->
      Alcotest.(check int) "c_max" 1 op.c_max)
    res.ops

let test_step_budget () =
  let r = SM.make 0 in
  let body _pid =
    while true do
      ignore (SM.get r)
    done
  in
  Alcotest.check_raises "budget" (Sim.Step_budget_exhausted 101) (fun () ->
      ignore (Sim.run ~max_steps:100 [| body |]))

let test_nested_op_begin_rejected () =
  let body _pid =
    Sim.op_begin ~n:0;
    Sim.op_begin ~n:0
  in
  Alcotest.check_raises "nested" (Failure "Sim: nested op_begin without op_end")
    (fun () -> ignore (Sim.run [| body |]))

let test_unfinished_ops_reported () =
  (* An op parked forever at a pending CAS still appears in the records. *)
  let r = SM.make 0 in
  let body0 _pid =
    Sim.op_begin ~n:7;
    let v = SM.get r in
    ignore (SM.cas r ~kind:Ev.Insertion ~expect:v 1);
    Sim.op_end ()
  in
  let policy st =
    match Sim.pending_kind st 0 with
    | Some (Lf_dsim.Sim_effect.Cas _) -> None (* stop before the CAS *)
    | _ -> if Sim.is_finished st 0 then None else Some 0
  in
  let res = Sim.run ~policy:(Sim.Custom policy) [| body0 |] in
  match res.ops with
  | [ op ] ->
      Alcotest.(check bool) "not completed" false op.completed;
      Alcotest.(check int) "n" 7 op.n_at_start
  | _ -> Alcotest.fail "expected exactly one (unfinished) op"

let test_writes_and_pause_counted () =
  let r = SM.make 0 in
  let body _pid =
    SM.set r 5;
    SM.pause 1;
    SM.event (Ev.User "hello")
  in
  let res = Sim.run [| body |] in
  Alcotest.(check int) "writes" 1 res.per_proc.(0).Lf_kernel.Counters.writes;
  (* set + pause are scheduling points; the note is not. *)
  Alcotest.(check int) "steps" 2 res.steps;
  Alcotest.(check int) "value" 5 (Sim.quiet (fun () -> SM.get r))

let test_quiet_passthrough () =
  let r = SM.make 3 in
  let v =
    Sim.quiet (fun () ->
        let v = SM.get r in
        ignore (SM.cas r ~kind:Ev.Other_cas ~expect:v 9);
        SM.get r)
  in
  Alcotest.(check int) "quiet executes" 9 v

let () =
  Alcotest.run "dsim"
    [
      ( "engine",
        [
          Alcotest.test_case "step counting" `Quick test_step_counting;
          Alcotest.test_case "cas atomicity" `Quick test_cas_atomicity;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "writes and pause" `Quick
            test_writes_and_pause_counted;
          Alcotest.test_case "quiet" `Quick test_quiet_passthrough;
          Alcotest.test_case "step budget" `Quick test_step_budget;
        ] );
      ( "policies",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin_interleaves;
          Alcotest.test_case "custom serializes" `Quick
            test_custom_policy_serializes;
          Alcotest.test_case "custom sees pending" `Quick
            test_custom_policy_sees_pending;
        ] );
      ( "op accounting",
        [
          Alcotest.test_case "overlap contention" `Quick test_op_accounting;
          Alcotest.test_case "solo contention" `Quick
            test_non_overlapping_ops_contention_one;
          Alcotest.test_case "nested rejected" `Quick
            test_nested_op_begin_rejected;
          Alcotest.test_case "unfinished reported" `Quick
            test_unfinished_ops_reported;
        ] );
    ]
