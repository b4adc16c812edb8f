(* Tests for the lf_check sanitizers.

   Protocol sanitizer (Check_mem): each seeded mutant of Fr_list - one
   corrupted step of the three-step deletion - must raise
   Protocol_violation naming the specific invariant it breaks, while the
   unmutated list and skiplist run multi-domain stress, recorded
   linearizable histories and bounded-schedule exploration under the
   sanitizer without a single violation.

   Race detector (Race_mem): a plain-store lost update races, a CAS-retry
   loop does not, a successful C&S orders a subsequent plain store, and the
   FR list's only racy cells are backlinks (the benign same-value stores
   the paper's design explicitly permits). *)

module Sim = Lf_dsim.Sim
module Ev = Lf_kernel.Mem_event
module Viol = Lf_check.Violation
module RD = Lf_check.Race_detector

(* Checked memory over real atomics, and the structures over it. *)
module CM = Lf_check.Check_mem.Make (Lf_kernel.Atomic_mem)
module CFR = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (CM)
module CSL = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (CM)

(* Checked memory over the deterministic simulator. *)
module CSM = Lf_check.Check_mem.Make (Lf_dsim.Sim_mem)
module CFRS = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (CSM)

(* Race-checked memory over the simulator. *)
module RM = Lf_check.Race_mem.Make (Lf_dsim.Sim_mem)
module RFR = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (RM)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

(* --- Seeded mutants: each caught, by name --- *)

let expect_violation inv f =
  match f () with
  | _ -> Alcotest.failf "expected a violation (%s); none raised" inv
  | exception Viol.Protocol_violation v ->
      Alcotest.(check string) "invariant" inv v.Viol.invariant;
      Alcotest.(check bool)
        "report carries a chain snapshot" true (v.snapshot <> []);
      Alcotest.(check bool) "report carries a trace" true (v.trace <> [])

let mutant_case name mutation inv =
  Alcotest.test_case name `Quick (fun () ->
      CM.reset ();
      let t = CFR.create_with ~mutation ~use_flags:true () in
      List.iter (fun k -> ignore (CFR.insert t k k)) [ 1; 2; 3; 4; 5 ];
      expect_violation inv (fun () -> CFR.delete t 3))

let mutant_cases =
  [
    mutant_case "skip-flag mutant -> INV3" CFR.Skip_flag
      "INV3: marking without a flagged predecessor";
    mutant_case "double-mark mutant -> INV2" CFR.Double_mark
      "INV2: marked is terminal";
    mutant_case "unlink-unflagged mutant -> INV3" CFR.Unlink_unflagged
      "INV3: physical delete from an unflagged predecessor";
    mutant_case "backlink-right mutant -> INV4" CFR.Backlink_right
      "INV4: backlink points right";
  ]

(* The same mutant under the simulator: the explorer records the violation
   as a failing schedule (with a reproducing prefix) instead of aborting. *)
let test_explore_surfaces_mutant () =
  let mk () =
    CSM.reset ();
    let t = CFRS.create_with ~mutation:CFRS.Skip_flag ~use_flags:true () in
    Sim.quiet (fun () ->
        List.iter (fun k -> ignore (CFRS.insert t k k)) [ 1; 2; 3 ]);
    let body _pid = ignore (CFRS.delete t 2) in
    ([| body; body |], fun () -> Ok ())
  in
  let res = Lf_dsim.Explore.run ~max_preemptions:1 ~max_schedules:200 mk in
  match res.failures with
  | [] -> Alcotest.fail "mutant not surfaced by exploration"
  | (_, msg) :: _ ->
      Alcotest.(check bool)
        "failure message names the invariant" true
        (contains msg "INV3: marking without a flagged predecessor")

(* --- Positive runs: the honest structures are violation-free --- *)

let mix = Lf_workload.Opgen.{ insert_pct = 40; delete_pct = 40 }

let test_checked_list_sequential () =
  CM.reset ();
  let t = CFR.create () in
  for k = 1 to 64 do
    ignore (CFR.insert t k k)
  done;
  for k = 1 to 64 do
    if k mod 2 = 0 then ignore (CFR.delete t k)
  done;
  CFR.check_invariants t;
  Alcotest.(check int) "length" 32 (CFR.length t)

(* EXP-10-style: recorded multi-domain bursts stay linearizable, and the
   larger throughput-style stress completes with zero violations. *)
let test_checked_list_stress () =
  CM.reset ();
  List.iter
    (fun seed ->
      let h =
        Lf_workload.Runner.run_recorded
          (module CFR)
          ~domains:3 ~ops_per_domain:8 ~key_range:4 ~mix ~seed ()
      in
      Support.assert_linearizable h)
    [ 31; 32; 33 ];
  let r =
    Lf_workload.Runner.run_throughput
      (module CFR)
      ~domains:2 ~ops_per_domain:3_000 ~key_range:64 ~mix ~seed:5 ()
  in
  Alcotest.(check bool) "ran" true (r.Lf_workload.Runner.total_ops > 0)

let test_checked_skiplist_stress () =
  CM.reset ();
  List.iter
    (fun seed ->
      let h =
        Lf_workload.Runner.run_recorded
          (module CSL)
          ~domains:3 ~ops_per_domain:8 ~key_range:4 ~mix ~seed ()
      in
      Support.assert_linearizable h)
    [ 41; 42; 43 ];
  let r =
    Lf_workload.Runner.run_throughput
      (module CSL)
      ~domains:2 ~ops_per_domain:2_000 ~key_range:64 ~mix ~seed:6 ()
  in
  Alcotest.(check bool) "ran" true (r.Lf_workload.Runner.total_ops > 0)

let test_checked_sim_random_schedules () =
  List.iter
    (fun seed ->
      CSM.reset ();
      let t = CFRS.create () in
      let module D = Lf_workload.Dict.Of (CFRS) in
      let ops = D.make t in
      let h =
        Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed) ~procs:3
          ~ops_per_proc:15 ~key_range:6 ~mix ~seed ops
      in
      Support.assert_linearizable h)
    [ 51; 52; 53; 54 ]

(* --- Race detector --- *)

let test_race_lost_update () =
  RM.reset ();
  let r = Sim.quiet (fun () -> RM.make 0) in
  let body _pid =
    let v = RM.get r in
    RM.set r (v + 1)
  in
  ignore (Sim.run ~policy:(Sim.Random 42) [| body; body |]);
  Alcotest.(check bool) "plain-store increment races" true (RM.races () <> [])

let test_race_cas_clean () =
  RM.reset ();
  let r = Sim.quiet (fun () -> RM.make 0) in
  let body _pid =
    let rec incr_once () =
      let v = RM.get r in
      if not (RM.cas r ~kind:Ev.Other_cas ~expect:v (v + 1)) then incr_once ()
    in
    incr_once ()
  in
  ignore (Sim.run ~policy:(Sim.Random 7) [| body; body |]);
  Alcotest.(check int) "CAS-retry increment is race-free" 0
    (List.length (RM.races ()))

let test_race_cas_orders_plain_store () =
  (* p0: plain-store r, then C&S-release a flag cell; p1: spin-acquire the
     flag, then plain-store r.  The release/acquire pair orders the two
     plain stores, so there is no race. *)
  RM.reset ();
  let r, flag = Sim.quiet (fun () -> (RM.make 0, RM.make 0)) in
  let body pid =
    if pid = 0 then begin
      RM.set r 1;
      ignore (RM.cas flag ~kind:Ev.Other_cas ~expect:0 1)
    end
    else begin
      let rec wait () = if RM.get flag = 0 then wait () in
      wait ();
      let v = RM.get r in
      RM.set r (v + 1)
    end
  in
  ignore (Sim.run ~policy:Sim.Round_robin [| body; body |]);
  Alcotest.(check int) "released store does not race" 0
    (List.length (RM.races ()))

(* The FR list's only unsynchronized stores are backlink writes - benign by
   design (every racing helper stores the same predecessor).  Any other
   racy cell would be an algorithm bug. *)
let test_fr_list_races_only_on_backlinks () =
  let total = ref 0 in
  List.iter
    (fun seed ->
      RM.reset ();
      let t = RFR.create () in
      Sim.quiet (fun () ->
          List.iter (fun k -> ignore (RFR.insert t k k)) [ 1; 2; 3; 4; 5; 6 ]);
      let body _pid =
        List.iter
          (fun k ->
            ignore (RFR.delete t k);
            ignore (RFR.insert t k k))
          [ 2; 3; 4 ]
      in
      ignore (Sim.run ~policy:(Sim.Random seed) [| body; body; body |]);
      let races = RM.races () in
      total := !total + List.length races;
      List.iter
        (fun (rc : RD.race) ->
          if not (contains rc.owner ".backlink") then
            Alcotest.failf "unexpected racy cell: %a" RD.pp_race rc)
        races)
    [ 3; 5; 8; 13; 21; 34 ];
  Alcotest.(check bool)
    "helping produced the benign backlink races" true (!total > 0)

let () =
  Alcotest.run "check"
    [
      ("mutants", mutant_cases);
      ( "explore integration",
        [
          Alcotest.test_case "mutant surfaces as failing schedule" `Quick
            test_explore_surfaces_mutant;
        ] );
      ( "positive",
        [
          Alcotest.test_case "sequential under sanitizer" `Quick
            test_checked_list_sequential;
          Alcotest.test_case "fr-list multi-domain stress" `Slow
            test_checked_list_stress;
          Alcotest.test_case "fr-skiplist multi-domain stress" `Slow
            test_checked_skiplist_stress;
          Alcotest.test_case "random simulator schedules" `Quick
            test_checked_sim_random_schedules;
        ] );
      ( "races",
        [
          Alcotest.test_case "lost update detected" `Quick
            test_race_lost_update;
          Alcotest.test_case "cas retry clean" `Quick test_race_cas_clean;
          Alcotest.test_case "release/acquire orders plain store" `Quick
            test_race_cas_orders_plain_store;
          Alcotest.test_case "fr-list races only on backlinks" `Quick
            test_fr_list_races_only_on_backlinks;
        ] );
    ]
