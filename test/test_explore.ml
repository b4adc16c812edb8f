(* Tests for the context-bounded systematic explorer, and exhaustive
   bounded-schedule verification of the lock-free structures on small
   scenarios: every schedule with <= 2 preemptions must keep invariants and
   produce a linearizable history. *)

module Sim = Lf_dsim.Sim
module SM = Lf_dsim.Sim_mem
module Explore = Lf_dsim.Explore
module Ev = Lf_kernel.Mem_event

(* --- The explorer itself --- *)

let test_zero_preemptions_single_schedule () =
  let mk () =
    let r = SM.make 0 in
    let body _pid =
      let v = SM.get r in
      ignore (SM.cas r ~kind:Ev.Other_cas ~expect:v (v + 1))
    in
    ([| body; body |], fun () -> Ok ())
  in
  let res = Explore.run ~max_preemptions:0 mk in
  (* Only the choice of the initial process is free; with symmetric bodies
     that is 2 schedules (p0 first or p1 first). *)
  Alcotest.(check bool) "few schedules" true (res.schedules_run <= 3);
  Alcotest.(check int) "no failures" 0 (List.length res.failures)

let test_finds_atomicity_violation () =
  (* Non-atomic increment: read then blind write.  With two processes and
     one preemption, some schedule loses an update. *)
  let mk () =
    let r = SM.make 0 in
    let body _pid =
      for _ = 1 to 2 do
        let v = SM.get r in
        SM.set r (v + 1)
      done
    in
    let check () =
      let v = Sim.quiet (fun () -> SM.get r) in
      if v = 4 then Ok () else Error (Printf.sprintf "lost update: %d" v)
    in
    ([| body; body |], check)
  in
  let res = Explore.run ~max_preemptions:1 mk in
  Alcotest.(check bool) "found the lost update" true
    (List.length res.failures > 0)

let test_cas_increment_safe_under_exploration () =
  (* The CAS-retry version must survive every schedule. *)
  let mk () =
    let r = SM.make 0 in
    let body _pid =
      for _ = 1 to 2 do
        let rec incr_once () =
          let v = SM.get r in
          if not (SM.cas r ~kind:Ev.Other_cas ~expect:v (v + 1)) then
            incr_once ()
        in
        incr_once ()
      done
    in
    let check () =
      let v = Sim.quiet (fun () -> SM.get r) in
      if v = 4 then Ok () else Error (Printf.sprintf "bad count: %d" v)
    in
    ([| body; body |], check)
  in
  let res = Explore.run ~max_preemptions:2 ~max_schedules:50_000 mk in
  Alcotest.(check int) "no failures" 0 (List.length res.failures);
  Alcotest.(check bool) "explored many schedules" true (res.schedules_run > 20)

let test_failure_prefix_reproduces () =
  let mk () =
    let r = SM.make 0 in
    let body _pid =
      let v = SM.get r in
      SM.set r (v + 1)
    in
    let check () =
      let v = Sim.quiet (fun () -> SM.get r) in
      if v = 2 then Ok () else Error "lost"
    in
    ([| body; body |], check)
  in
  let res = Explore.run ~max_preemptions:1 mk in
  match res.failures with
  | [] -> Alcotest.fail "expected a failure"
  | (prefix, _) :: _ ->
      (* Re-running the recorded prefix must reproduce the failure. *)
      let _, verdict =
        Explore.run_one ~max_steps:1000 mk (Array.of_list prefix)
      in
      Alcotest.(check bool) "reproduced" true (Result.is_error verdict)

(* --- Exhaustive bounded-schedule checking of the structures --- *)

(* Scenarios are [Lf_model.Certify]'s: a fresh structure prefilled with
   [initial], one script per process, and an oracle that checks invariants
   and the linearizability of the recorded history.  The FR structures
   explore under the protocol sanitizer: every schedule the explorer
   enumerates is also validated against INV 1-5 step by step, and a
   violation surfaces as that schedule's failure (with its reproducing
   prefix).  The baselines (Harris, Valois) keep plain [Sim_mem]: they do
   not speak the flag/backlink protocol. *)
module Certify = Lf_model.Certify

let scenario ~initial scripts =
  { Certify.sc_name = ""; sc_initial = initial; sc_scripts = scripts }

(* Three levels and scripted heights (k mod 3) + 1, a taller variant than
   Certify's own skip list. *)
let skiplist_dict () =
  let module CM = Lf_check.Check_mem.Make (Lf_dsim.Sim_mem) in
  let module L = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (CM) in
  let module D = Lf_workload.Dict.Of (L) in
  let t = L.create_with ~max_level:3 () in
  {
    (D.make t) with
    insert = (fun k -> L.insert_with_height t ~height:((k mod 3) + 1) k k);
  }

let fr_list = Certify.mk ~structure:"fr-list"
let harris = Certify.mk ~structure:"harris-list"
let valois = Certify.mk ~structure:"valois-list"
let skiplist = Certify.dict_mk skiplist_dict

let exhaustive name mk scripts =
  Alcotest.test_case name `Slow (fun () ->
      let res =
        Explore.run ~max_preemptions:2 ~max_schedules:40_000
          (mk (scenario ~initial:[ 1; 3 ] scripts))
      in
      (match res.failures with
      | [] -> ()
      | (prefix, msg) :: _ ->
          Alcotest.failf "%s: %s under schedule [%s] (%d schedules)" name msg
            (String.concat ";" (List.map string_of_int prefix))
            res.schedules_run);
      if res.schedules_run < 10 then
        Alcotest.failf "%s: suspiciously few schedules (%d)" name
          res.schedules_run)

(* Randomized scenario generation: qcheck drives the explorer with random
   short scripts; every bounded schedule of every generated scenario must
   be invariant-clean and linearizable. *)
let random_scenarios_prop =
  let op_of (tag, k) : Certify.op =
    match tag with 0 -> I k | 1 -> D k | _ -> F k
  in
  Support.qcheck ~count:40 "random scenarios, all 1-preemption schedules"
    QCheck2.Gen.(
      pair
        (list_size (return 2) (pair (int_bound 2) (int_bound 3)))
        (list_size (return 2) (pair (int_bound 2) (int_bound 3))))
    (fun (s0, s1) ->
      let scripts = [ List.map op_of s0; List.map op_of s1 ] in
      let res =
        Explore.run ~max_preemptions:1 ~max_schedules:5_000
          (fr_list (scenario ~initial:[ 1 ] scripts))
      in
      res.failures = [])

let conflict_scripts = Certify.[ [ I 2; D 1 ]; [ D 2; I 1 ] ]
let hotspot_scripts = Certify.[ [ I 2; D 2 ]; [ D 2; I 2 ] ]
let mixed_scripts = Certify.[ [ I 2; F 3 ]; [ D 3; F 2 ] ]

(* Three processes, one conflicting op each: a wider interleaving space
   (every pair can preempt every other). *)
let three_way_scripts = Certify.[ [ I 2 ]; [ D 1 ]; [ D 2 ] ]

let () =
  Alcotest.run "explore"
    [
      ( "engine",
        [
          Alcotest.test_case "zero preemptions" `Quick
            test_zero_preemptions_single_schedule;
          Alcotest.test_case "finds lost update" `Quick
            test_finds_atomicity_violation;
          Alcotest.test_case "cas increment safe" `Quick
            test_cas_increment_safe_under_exploration;
          Alcotest.test_case "failure prefix reproduces" `Quick
            test_failure_prefix_reproduces;
        ] );
      ( "fr-list exhaustive",
        [
          exhaustive "conflict" fr_list conflict_scripts;
          exhaustive "hotspot" fr_list hotspot_scripts;
          exhaustive "mixed" fr_list mixed_scripts;
          exhaustive "three-way" fr_list three_way_scripts;
          random_scenarios_prop;
        ] );
      ( "harris exhaustive",
        [
          exhaustive "conflict" harris conflict_scripts;
          exhaustive "hotspot" harris hotspot_scripts;
        ] );
      ( "valois exhaustive",
        [
          exhaustive "conflict" valois conflict_scripts;
          exhaustive "hotspot" valois hotspot_scripts;
        ] );
      ( "skiplist exhaustive",
        [
          exhaustive "conflict" skiplist conflict_scripts;
          exhaustive "hotspot" skiplist hotspot_scripts;
          exhaustive "mixed" skiplist mixed_scripts;
          exhaustive "three-way" skiplist three_way_scripts;
          (* Key 1 is a height-2 tower: both finds race every step of its
             root deletion and of the cleanup search that unlinks level 2. *)
          exhaustive "tower delete races finds" skiplist
            Certify.[ [ F 1; F 3 ]; [ D 1 ] ];
        ] );
    ]
