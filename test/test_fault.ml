(* The fault-injection machinery itself: plan determinism and replay,
   crash-point coverage, Fault_mem semantics (spurious C&S failures that
   never reach the wrapped memory, crashes in the TRYFLAG->TRYMARK window,
   stalls), crash residue classification, crashed-operation
   linearizability, and the negative tests proving the starvation
   watchdogs detect non-lock-freedom by name. *)

module Fault = Lf_fault.Fault
module FP = Lf_kernel.Fault_point
module ME = Lf_kernel.Mem_event
module Sim = Lf_dsim.Sim
module SimFM = Lf_fault.Fault_mem.Make (Lf_dsim.Sim_mem)
module SimFL = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (SimFM)
module SimFL_dict = Lf_workload.Dict.Of (SimFL)

(* --- Plan determinism ------------------------------------------------ *)

let points =
  [|
    FP.Any;
    FP.Read;
    FP.Write;
    FP.Any_cas;
    FP.Cas ME.Flagging;
    FP.Cas ME.Marking;
    FP.After_cas_ok ME.Flagging;
    FP.After_cas_ok ME.Insertion;
  |]

(* The promise of Fault: the faults a lane observes depend only on (plan
   seed, that lane's access sequence).  Drive two independent executions of
   the same plan with an identical synthetic access stream; the injected
   traces must match event for event. *)
let test_plan_determinism =
  Support.qcheck ~count:100 "same seed + same accesses => same faults"
    QCheck2.Gen.(triple (0 -- 1000) (0 -- 1000) (0 -- 7))
    (fun (pseed, dseed, pi) ->
      let plan =
        Fault.make_plan ~seed:pseed
          [
            Fault.spurious ~p:0.25 ~burst:2 points.(pi);
            { Fault.point = FP.Any; action = Stall 2; mode = At 7; lane = Some 1 };
          ]
      in
      let run () =
        let e = Fault.start plan in
        let rng = Lf_kernel.Splitmix.create dseed in
        for _ = 1 to 120 do
          let lane = Lf_kernel.Splitmix.int rng 3 in
          let access =
            match Lf_kernel.Splitmix.int rng 4 with
            | 0 -> FP.A_read
            | 1 -> FP.A_write
            | 2 -> FP.A_cas ME.Flagging
            | _ -> FP.A_cas ME.Insertion
          in
          ignore (Fault.on_access e ~lane access);
          match access with
          | FP.A_cas k ->
              Fault.note_cas_result e ~lane k (Lf_kernel.Splitmix.bool rng)
          | _ -> ()
        done;
        List.map Fault.injected_to_string (Fault.trace e)
      in
      run () = run ())

let test_plan_string_roundtrip =
  Support.qcheck ~count:100 "plan round-trips through its string"
    QCheck2.Gen.(pair (0 -- 1000) (0 -- 7))
    (fun (seed, pi) ->
      let plan =
        Fault.make_plan ~seed
          [
            Fault.spurious ~p:0.25 ~burst:3 points.(pi);
            Fault.crash_at ~lane:2 4 points.(pi);
            Fault.stall_at ~spins:16 2 points.(pi);
          ]
      in
      Fault.plan_of_string (Fault.plan_to_string plan) = Ok plan)

(* --- Crash-point coverage -------------------------------------------- *)

(* [crash_at k Any] for k = 1, 2, ... walks the crash point across every
   shared access of the operation: each k up to the operation's length
   injects exactly one crash, and the first k past the end injects
   nothing.  This is the exhaustiveness Explore's crash mode relies on. *)
let test_crash_point_coverage () =
  let rec go k covered =
    let t = SimFL.create () in
    Sim.quiet (fun () ->
        List.iter (fun key -> ignore (SimFL.insert t key 0)) [ 10; 20; 30 ]);
    SimFM.install (Fault.make_plan ~seed:1 [ Fault.crash_at k FP.Any ]);
    let crashed = ref false in
    ignore
      (Sim.run
         [|
           (fun _ ->
             try ignore (SimFL.delete t 20)
             with Fault.Crashed _ -> crashed := true);
         |]);
    let injected = List.length (SimFM.injected ()) in
    SimFM.uninstall ();
    if !crashed then begin
      Alcotest.(check int) (Printf.sprintf "k=%d: one injection" k) 1 injected;
      go (k + 1) (covered + 1)
    end
    else begin
      Alcotest.(check int) "past the end: no injection" 0 injected;
      covered
    end
  in
  let covered = go 1 0 in
  Alcotest.(check bool)
    (Printf.sprintf "covered %d crash points" covered)
    true (covered > 5)

(* --- Fault_mem semantics --------------------------------------------- *)

module CFM = Lf_fault.Fault_mem.Make (Lf_kernel.Counting_mem)

let test_spurious_skips_inner_cas () =
  let r = CFM.make 0 in
  Lf_kernel.Counting_mem.reset_all ();
  CFM.install (Fault.make_plan ~seed:2 [ Fault.spurious FP.Any_cas ]);
  let ok = CFM.cas r ~kind:ME.Other_cas ~expect:0 1 in
  let inner =
    Lf_kernel.Counters.total_cas_attempts (Lf_kernel.Counting_mem.grand_total ())
  in
  let injected = List.length (CFM.injected ()) in
  CFM.uninstall ();
  Alcotest.(check bool) "C&S reported failed" false ok;
  Alcotest.(check int) "value untouched" 0 (CFM.get r);
  Alcotest.(check int) "wrapped memory never saw the attempt" 0 inner;
  Alcotest.(check int) "one injection recorded" 1 injected;
  Alcotest.(check bool) "succeeds once uninstalled" true
    (CFM.cas r ~kind:ME.Other_cas ~expect:0 1)

module AFM = Lf_fault.Fault_mem.Make (Lf_kernel.Atomic_mem)

let test_stall_delays_then_proceeds () =
  let r = AFM.make 41 in
  AFM.install (Fault.make_plan ~seed:4 [ Fault.stall_at ~spins:8 1 FP.Read ]);
  let v = AFM.get r in
  let tr = AFM.injected () in
  AFM.uninstall ();
  Alcotest.(check int) "read still returns the value" 41 v;
  match tr with
  | [ i ] -> (
      match i.Fault.i_action with
      | Fault.Stall n -> Alcotest.(check int) "stall rounds" 8 n
      | a -> Alcotest.failf "expected a stall, got %s" (Fault.action_name a))
  | l -> Alcotest.failf "expected one injection, got %d" (List.length l)

(* Crash in the TRYFLAG->TRYMARK window: the flag is published, the mark is
   not, and the key is still logically present.  Helpers then complete the
   orphaned deletion.  The first key's predecessor, whose flag is orphaned,
   is the head. *)
let test_crash_between_flag_and_mark () =
  List.iter
    (fun victim ->
      let t = SimFL.create () in
      Sim.quiet (fun () ->
          List.iter (fun key -> ignore (SimFL.insert t key 0)) [ 10; 20; 30 ]);
      SimFM.install
        (Fault.make_plan ~seed:3
           [ Fault.crash_at 1 (FP.After_cas_ok ME.Flagging) ]);
      let crashed = ref false in
      ignore
        (Sim.run
           [|
             (fun _ ->
               try ignore (SimFL.delete t victim)
               with Fault.Crashed _ -> crashed := true);
           |]);
      let injected = SimFM.injected () in
      SimFM.uninstall ();
      Alcotest.(check bool) "victim crashed" true !crashed;
      (match injected with
      | [ i ] -> (
          match i.Fault.i_action with
          | Fault.Crash -> ()
          | a -> Alcotest.failf "expected a crash, got %s" (Fault.action_name a))
      | l -> Alcotest.failf "expected one injection, got %d" (List.length l));
      Sim.quiet (fun () ->
          Alcotest.(check bool) "key still logically present (no mark yet)" true
            (SimFL.mem t victim);
          (* Strict quiescent validation must reject the orphaned flag... *)
          try
            SimFL.check_invariants t;
            Alcotest.failf
              "check_invariants accepted a flagged node at quiescence (victim \
               %d)"
              victim
          with Failure _ -> ());
      (* ...and any survivor touching the region helps the deletion through. *)
      ignore (Sim.run [| (fun _ -> ignore (SimFL.delete t victim)) |]);
      Sim.quiet (fun () ->
          Alcotest.(check bool) "helped deletion completed" false
            (SimFL.mem t victim);
          SimFL.check_invariants t))
    [ 20; 10 ]

(* --- Crash residue under the protocol sanitizer ---------------------- *)

module CheckM = Lf_check.Check_mem.Make (Lf_dsim.Sim_mem)
module FCheckM = Lf_fault.Fault_mem.Make (CheckM)
module CheckL = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (FCheckM)

let test_crash_residue_classified () =
  CheckM.reset ();
  let t = CheckL.create () in
  Sim.quiet (fun () ->
      List.iter (fun key -> ignore (CheckL.insert t key 0)) [ 10; 20; 30 ]);
  FCheckM.install
    (Fault.make_plan ~seed:5 [ Fault.crash_at 1 (FP.After_cas_ok ME.Flagging) ]);
  ignore
    (Sim.run
       [| (fun _ -> try ignore (CheckL.delete t 20) with Fault.Crashed _ -> ()) |]);
  FCheckM.uninstall ();
  Sim.quiet (fun () ->
      (match CheckM.check_crash_residue () with
      | Ok () -> ()
      | Error m -> Alcotest.failf "residue not crash-explainable: %s" m);
      let res = CheckM.residue () in
      (match res.CheckM.r_flagged with
      | [ (_, window) ] ->
          Alcotest.(check string) "died in the flag window" "tryflag->trymark"
            window
      | l -> Alcotest.failf "expected one flagged cell, got %d" (List.length l));
      Alcotest.(check int) "no marked cell yet" 0
        (List.length res.CheckM.r_marked));
  (* A survivor recovers the orphan; the residue disappears. *)
  ignore (Sim.run [| (fun _ -> ignore (CheckL.delete t 20)) |]);
  Sim.quiet (fun () ->
      let res = CheckM.residue () in
      Alcotest.(check int) "residue cleaned up by helping" 0
        (List.length res.CheckM.r_flagged + List.length res.CheckM.r_marked))

(* --- Negative tests: the watchdogs detect non-lock-freedom ----------- *)

(* A crashed flag holder plus the [No_help] mutant: operations stuck
   behind the orphaned flag spin forever, which the simulator watchdog
   must diagnose (and park) rather than run the scheduler endlessly.  The
   same scenario with helping enabled must pass clean — that contrast is
   the point. *)
let chaos_sim_once ~mutation ~seed =
  let t = SimFL.create_with ?mutation ~use_flags:true () in
  Sim.quiet (fun () ->
      for k = 0 to 7 do
        ignore (SimFL.insert t k k)
      done);
  SimFM.install
    (Fault.make_plan ~seed:31
       [ Fault.crash_at ~lane:0 1 (FP.After_cas_ok ME.Flagging) ]);
  let report =
    Lf_workload.Sim_driver.run_chaos_sim ~policy:(Sim.Random seed)
      ~initial_size:8 ~step_budget:1_500
      ~injected:(fun () -> List.length (SimFM.injected ()))
      ~procs:3 ~ops_per_proc:30 ~key_range:8
      ~mix:{ insert_pct = 20; delete_pct = 60 }
      ~seed (SimFL_dict.make t)
  in
  SimFM.uninstall ();
  report

let test_no_help_mutant_starves () =
  let r = chaos_sim_once ~mutation:(Some SimFL.No_help) ~seed:11 in
  Alcotest.(check bool) "crash was injected" true
    (r.Lf_workload.Sim_driver.sc_injected > 0);
  Alcotest.(check (list int)) "lane 0 crashed" [ 0 ] r.sc_crashed;
  Alcotest.(check bool) "watchdog tripped on the No_help mutant" true
    r.sc_watchdog_tripped

let test_helping_passes_same_scenario () =
  let r = chaos_sim_once ~mutation:None ~seed:11 in
  Alcotest.(check bool) "crash was injected" true
    (r.Lf_workload.Sim_driver.sc_injected > 0);
  Alcotest.(check (list int)) "lane 0 crashed" [ 0 ] r.sc_crashed;
  Alcotest.(check bool) "no starvation with helping" false r.sc_watchdog_tripped;
  Array.iteri
    (fun pid n ->
      if not (List.mem pid r.sc_crashed) then
        Alcotest.(check int)
          (Printf.sprintf "pid %d completed all ops" pid)
          30 n)
    r.sc_completed

(* Real domains: a lock holder stalled past the budget starves every
   lock-based operation — the watchdog must name it.  The same stalled
   domain under the lock-free list bothers nobody. *)
module CoarseI = Lf_baselines.Coarse_list.Int
module LazyI = Lf_baselines.Lazy_list.Int

(* The victim stalls for [stall_s].  A lock it holds blocks the other
   domains for about as long (the two lock-based contrasts read 199-205
   ms on a 2-vCPU Xeon VM), while a lock-free survivor's worst operation
   is host scheduling and stop-the-world minor collections, although an
   operation takes 1-2 us: 0.6-5.2 ms there over 10 runs, with three
   workers and the monitor on two vCPUs, and more on a loaded host.  A
   budget of half the stall keeps a wide margin on both sides; a fixed
   30 ms one sat within host noise of the lock-free case. *)
let stall_s = 0.2

let run_chaos_with ~name d ~victims ~mix =
  Lf_workload.Runner.run_chaos ~victims ~budget_s:(stall_s /. 2.)
    ~window_s:0.12 ~name d ~domains:3 ~key_range:16 ~mix ~seed:5 ()

let test_coarse_lock_holder_starves () =
  let t = CoarseI.create () in
  let module D = Lf_workload.Dict.Of (CoarseI) in
  let r =
    run_chaos_with ~name:"coarse-list" (D.make t)
      ~victims:
        [ (0, fun () -> CoarseI.with_lock_held t (fun () -> Unix.sleepf stall_s)) ]
      ~mix:{ insert_pct = 30; delete_pct = 30 }
  in
  Alcotest.(check bool) "watchdog tripped on held global lock" true
    r.Lf_workload.Runner.c_watchdog_tripped

let test_lazy_head_lock_starves () =
  let t = LazyI.create () in
  let module D = Lf_workload.Dict.Of (LazyI) in
  let r =
    run_chaos_with ~name:"lazy-list" (D.make t)
      ~victims:
        [ (0, fun () -> LazyI.with_head_locked t (fun () -> Unix.sleepf stall_s)) ]
      ~mix:{ insert_pct = 45; delete_pct = 45 }
  in
  Alcotest.(check bool) "watchdog tripped on held head lock" true
    r.Lf_workload.Runner.c_watchdog_tripped

module AFL = Lf_list.Fr_list.Atomic_int

let test_fr_stalled_domain_is_harmless () =
  let module D = Lf_workload.Dict.Of (AFL) in
  let r =
    run_chaos_with ~name:"fr-list" (D.make (AFL.create ()))
      ~victims:[ (0, fun () -> Unix.sleepf stall_s) ]
      ~mix:{ insert_pct = 30; delete_pct = 30 }
  in
  Alcotest.(check bool) "no starvation: stalled domain holds nothing" false
    r.Lf_workload.Runner.c_watchdog_tripped;
  Alcotest.(check bool) "survivors made progress" true (r.c_survivor_ops > 0)

(* --- Crashed operations in the linearizability checker --------------- *)

module AFLf = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (AFM)

(* An injected crash leaves one pending operation; the history must
   linearize under SOME resolution of it (never-happened / succeeded /
   failed).  Whether the crash fires is a race against real domains, so
   scan a few seeds until one does. *)
let test_pending_crashed_op_linearizes () =
  let rec attempt seed =
    if seed > 20 then
      Alcotest.fail "no seed produced an injected crash in 20 attempts"
    else begin
      let module D = Lf_workload.Dict.Of (AFLf) in
      let d = D.make (AFLf.create ()) in
      AFM.install
        (Fault.make_plan ~seed:7
           [ Fault.crash_at ~lane:0 1 (FP.After_cas_ok ME.Insertion) ]);
      let hist, pending =
        Lf_workload.Runner.run_chaos_recorded d ~domains:2 ~ops_per_domain:8 ~key_range:16
          ~mix:{ insert_pct = 70; delete_pct = 15 }
          ~seed ()
      in
      AFM.uninstall ();
      match pending with
      | [] -> attempt (seed + 1)
      | _ :: _ ->
          Alcotest.(check int) "one pending operation" 1 (List.length pending);
          Alcotest.(check bool) "some resolution linearizes" true
            (Lf_workload.Runner.linearizable_with_pending hist pending)
    end
  in
  attempt 1

let () =
  Alcotest.run "fault"
    [
      ( "plans",
        [
          test_plan_determinism;
          test_plan_string_roundtrip;
          Alcotest.test_case "crash-point coverage" `Quick
            test_crash_point_coverage;
        ] );
      ( "fault-mem",
        [
          Alcotest.test_case "spurious C&S skips wrapped memory" `Quick
            test_spurious_skips_inner_cas;
          Alcotest.test_case "stall delays then proceeds" `Quick
            test_stall_delays_then_proceeds;
          Alcotest.test_case "crash between TRYFLAG and TRYMARK" `Quick
            test_crash_between_flag_and_mark;
        ] );
      ( "residue",
        [
          Alcotest.test_case "crash residue classified and recovered" `Quick
            test_crash_residue_classified;
        ] );
      ( "watchdogs",
        [
          Alcotest.test_case "No_help mutant starves (sim)" `Quick
            test_no_help_mutant_starves;
          Alcotest.test_case "helping passes the same scenario (sim)" `Quick
            test_helping_passes_same_scenario;
          Alcotest.test_case "coarse lock holder starves (domains)" `Quick
            test_coarse_lock_holder_starves;
          Alcotest.test_case "lazy head lock starves (domains)" `Quick
            test_lazy_head_lock_starves;
          Alcotest.test_case "FR stalled domain is harmless (domains)" `Quick
            test_fr_stalled_domain_is_harmless;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "crashed op linearizes under some resolution"
            `Quick test_pending_crashed_op_linearizes;
        ] );
    ]
