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

(* Run a random simulator schedule over closures and validate conservation:
   net successful inserts minus deletes equals the final length. *)
let sim_conservation name ~seeds ~create ~insert ~delete ~find ~length ~check =
  let test seed =
    let t = create () in
    let net = ref 0 in
    let body pid =
      let rng = Lf_kernel.Splitmix.create (seed + (977 * pid)) in
      for _ = 1 to 120 do
        let k = Lf_kernel.Splitmix.int rng 20 in
        match Lf_kernel.Splitmix.int rng 3 with
        | 0 -> if insert t k then incr net
        | 1 -> if delete t k then decr net
        | _ -> ignore (find t k)
      done
    in
    ignore (Sim.run ~policy:(Sim.Random seed) (Array.make 3 body));
    Sim.quiet (fun () ->
        check t;
        Alcotest.(check int)
          (Printf.sprintf "%s conservation (seed %d)" name seed)
          !net (length t))
  in
  List.iter test seeds

let test_harris_sim () =
  sim_conservation "harris" ~seeds:[ 1; 2; 3; 4; 5 ] ~create:HarrisS.create
    ~insert:(fun t k -> HarrisS.insert t k k)
    ~delete:HarrisS.delete ~find:HarrisS.mem ~length:HarrisS.length
    ~check:HarrisS.check_invariants

let test_michael_sim () =
  sim_conservation "michael" ~seeds:[ 1; 2; 3; 4; 5 ] ~create:MichaelS.create
    ~insert:(fun t k -> MichaelS.insert t k k)
    ~delete:MichaelS.delete ~find:MichaelS.mem ~length:MichaelS.length
    ~check:MichaelS.check_invariants

let test_valois_sim () =
  sim_conservation "valois" ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ]
    ~create:ValoisS.create
    ~insert:(fun t k -> ValoisS.insert t k k)
    ~delete:ValoisS.delete ~find:ValoisS.mem ~length:ValoisS.length
    ~check:ValoisS.check_invariants

let sim_linearizable name ops_of ~seeds =
  List.iter
    (fun seed ->
      let ops = ops_of () in
      let h =
        Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed) ~procs:3
          ~ops_per_proc:15 ~key_range:6
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed ops
      in
      try Support.assert_linearizable h
      with e ->
        Printf.eprintf "%s seed %d\n" name seed;
        raise e)
    seeds

let test_harris_linearizable () =
  sim_linearizable "harris"
    (fun () ->
      let t = HarrisS.create () in
      Lf_workload.Sim_driver.
        {
          insert = (fun k -> HarrisS.insert t k k);
          delete = (fun k -> HarrisS.delete t k);
          find = (fun k -> HarrisS.mem t k);
        })
    ~seeds:[ 31; 32; 33; 34 ]

let test_michael_linearizable () =
  sim_linearizable "michael"
    (fun () ->
      let t = MichaelS.create () in
      Lf_workload.Sim_driver.
        {
          insert = (fun k -> MichaelS.insert t k k);
          delete = (fun k -> MichaelS.delete t k);
          find = (fun k -> MichaelS.mem t k);
        })
    ~seeds:[ 41; 42; 43; 44 ]

let test_valois_linearizable () =
  sim_linearizable "valois"
    (fun () ->
      let t = ValoisS.create () in
      Lf_workload.Sim_driver.
        {
          insert = (fun k -> ValoisS.insert t k k);
          delete = (fun k -> ValoisS.delete t k);
          find = (fun k -> ValoisS.mem t k);
        })
    ~seeds:[ 51; 52; 53; 54; 55; 56 ]

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
