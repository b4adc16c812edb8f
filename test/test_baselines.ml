(* Tests for the baseline implementations the paper compares against:
   Harris [3], Michael [8], Valois [17], plus the lock-based and sequential
   baselines.  Oracle agreement, invariants under simulator schedules,
   linearizability, and domain stress. *)

module Sim = Lf_dsim.Sim

(* Static interface conformance. *)
module _ : Support.INT_DICT = Lf_baselines.Harris_list.Atomic_int
module _ : Support.INT_DICT = Lf_baselines.Michael_list.Atomic_int
module _ : Support.INT_DICT = Lf_baselines.Valois_list.Atomic_int
module _ : Support.INT_DICT = Lf_baselines.Coarse_list.Int
module _ : Support.INT_DICT = Lf_baselines.Lazy_list.Int
module _ : Support.INT_DICT = Lf_baselines.Seq_list.Int

(* Simulator instantiations. *)
module HarrisS = Lf_baselines.Harris_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module MichaelS = Lf_baselines.Michael_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module ValoisS = Lf_baselines.Valois_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)

let oracle_tests =
  [
    Support.oracle_test (module Lf_baselines.Harris_list.Atomic_int);
    Support.oracle_test (module Lf_baselines.Michael_list.Atomic_int);
    Support.oracle_test (module Lf_baselines.Valois_list.Atomic_int);
    Support.oracle_test (module Lf_baselines.Coarse_list.Int);
    Support.oracle_test (module Lf_baselines.Lazy_list.Int);
    Support.oracle_test (module Lf_baselines.Seq_list.Int);
  ]

(* Run a random simulator schedule over a fresh instance and validate
   conservation: net successful inserts minus deletes equals the final
   length. *)
let sim_conservation name ~seeds (module D : Support.INT_DICT) =
  let module T = Lf_workload.Dict.Of (D) in
  let test seed =
    let t = D.create () in
    let d = T.make t in
    let net = ref 0 in
    let body pid =
      let rng = Lf_kernel.Splitmix.create (seed + (977 * pid)) in
      for _ = 1 to 120 do
        let k = Lf_kernel.Splitmix.int rng 20 in
        match Lf_kernel.Splitmix.int rng 3 with
        | 0 -> if d.insert k then incr net
        | 1 -> if d.delete k then decr net
        | _ -> ignore (d.find k)
      done
    in
    ignore (Sim.run ~policy:(Sim.Random seed) (Array.make 3 body));
    Sim.quiet (fun () ->
        d.check ();
        Alcotest.(check int)
          (Printf.sprintf "%s conservation (seed %d)" name seed)
          !net (D.length t))
  in
  List.iter test seeds

let test_harris_sim () =
  sim_conservation "harris" ~seeds:[ 1; 2; 3; 4; 5 ] (module HarrisS)

let test_michael_sim () =
  sim_conservation "michael" ~seeds:[ 1; 2; 3; 4; 5 ] (module MichaelS)

let test_valois_sim () =
  sim_conservation "valois" ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ] (module ValoisS)

let sim_linearizable name ~seeds (module D : Support.INT_DICT) =
  let module T = Lf_workload.Dict.Of (D) in
  List.iter
    (fun seed ->
      let h =
        Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed) ~procs:3
          ~ops_per_proc:15 ~key_range:6
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed
          (T.make (D.create ()))
      in
      try Support.assert_linearizable h
      with e ->
        Printf.eprintf "%s seed %d\n" name seed;
        raise e)
    seeds

let test_harris_linearizable () =
  sim_linearizable "harris" ~seeds:[ 31; 32; 33; 34 ] (module HarrisS)

let test_michael_linearizable () =
  sim_linearizable "michael" ~seeds:[ 41; 42; 43; 44 ] (module MichaelS)

let test_valois_linearizable () =
  sim_linearizable "valois" ~seeds:[ 51; 52; 53; 54; 55; 56 ] (module ValoisS)

(* Valois structure: deletions leave auxiliary chains that traversals still
   cross correctly; quiescent collapse keeps the list usable. *)
let test_valois_aux_chains () =
  let module V = Lf_baselines.Valois_list.Atomic_int in
  let t = V.create () in
  for i = 1 to 50 do
    ignore (V.insert t i i)
  done;
  (* Delete a contiguous run; the region between 10 and 31 accumulates
     auxiliary nodes. *)
  for i = 11 to 30 do
    ignore (V.delete t i)
  done;
  Alcotest.(check int) "length" 30 (V.length t);
  Alcotest.(check bool) "walks over deleted region" true (V.mem t 31);
  Alcotest.(check bool) "insert into deleted region" true (V.insert t 20 20);
  Alcotest.(check bool) "find reinserted" true (V.mem t 20);
  V.check_invariants t

let domain_stress (module D : Support.INT_DICT) () =
  let t = D.create () in
  let net = Atomic.make 0 in
  let work did =
    let rng = Lf_kernel.Splitmix.create (did * 31) in
    let local = ref 0 in
    for _ = 1 to 10_000 do
      let k = Lf_kernel.Splitmix.int rng 32 in
      match Lf_kernel.Splitmix.int rng 3 with
      | 0 -> if D.insert t k k then incr local
      | 1 -> if D.delete t k then decr local
      | _ -> ignore (D.find t k)
    done;
    ignore (Atomic.fetch_and_add net !local)
  in
  let ds = List.init 3 (fun i -> Domain.spawn (fun () -> work (i + 1))) in
  work 0;
  List.iter Domain.join ds;
  D.check_invariants t;
  Alcotest.(check int) (D.name ^ " conservation") (Atomic.get net) (D.length t)

(* The shipped instances against their functors. *)
let shipped_props =
  let module K = Lf_kernel.Ordered.Int in
  let module A = Lf_kernel.Atomic_mem in
  [
    Support.same_as_functor ~ops:4 "harris-list"
      (Support.dict_stream (module Lf_baselines.Harris_list.Atomic_int))
      (Support.dict_stream (module Lf_baselines.Harris_list.Make (K) (A)));
    Support.same_as_functor ~ops:4 "michael-list"
      (Support.dict_stream (module Lf_baselines.Michael_list.Atomic_int))
      (Support.dict_stream (module Lf_baselines.Michael_list.Make (K) (A)));
    Support.same_as_functor ~ops:4 "valois-list"
      (Support.dict_stream (module Lf_baselines.Valois_list.Atomic_int))
      (Support.dict_stream (module Lf_baselines.Valois_list.Make (K) (A)));
  ]

let () =
  Alcotest.run "baselines"
    [
      ("oracle", oracle_tests);
      ("shipped instances", shipped_props);
      ( "sim conservation",
        [
          Alcotest.test_case "harris" `Quick test_harris_sim;
          Alcotest.test_case "michael" `Quick test_michael_sim;
          Alcotest.test_case "valois" `Quick test_valois_sim;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "harris" `Quick test_harris_linearizable;
          Alcotest.test_case "michael" `Quick test_michael_linearizable;
          Alcotest.test_case "valois" `Quick test_valois_linearizable;
        ] );
      ( "valois structure",
        [ Alcotest.test_case "aux chains" `Quick test_valois_aux_chains ] );
      ( "domain stress",
        [
          Alcotest.test_case "harris" `Slow
            (domain_stress (module Lf_baselines.Harris_list.Atomic_int));
          Alcotest.test_case "michael" `Slow
            (domain_stress (module Lf_baselines.Michael_list.Atomic_int));
          Alcotest.test_case "valois" `Slow
            (domain_stress (module Lf_baselines.Valois_list.Atomic_int));
          Alcotest.test_case "coarse" `Slow
            (domain_stress (module Lf_baselines.Coarse_list.Int));
          Alcotest.test_case "lazy" `Slow
            (domain_stress (module Lf_baselines.Lazy_list.Int));
        ] );
    ]
