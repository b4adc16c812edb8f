(* Tests for the skip lists: Pugh's sequential oracle, the lock-free
   Fomitchev-Ruppert skip list (cell copies, tower structure, interrupted
   insertions, superfluous-node helping, delete_min, placeholder keys,
   allocation budgets), the locked baseline, and the height distribution
   of Section 4's last paragraph. *)

module SL = Lf_skiplist.Fr_skiplist.Atomic_int
module SLS = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module Pugh = Lf_skiplist.Seq_skiplist.Int
module Sim = Lf_dsim.Sim
module Ev = Lf_kernel.Mem_event

module _ : Support.INT_DICT = Lf_skiplist.Fr_skiplist.Atomic_int
module _ : Support.INT_DICT = Lf_skiplist.Seq_skiplist.Int
module _ : Support.INT_DICT = Lf_skiplist.Locked_skiplist.Int
module _ : Support.INT_DICT = Lf_skiplist.Fraser_skiplist.Atomic_int

module _ : Support.INT_DICT = Lf_skiplist.St_skiplist.Atomic_int

module FraserS =
  Lf_skiplist.Fraser_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)

module StS = Lf_skiplist.St_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)

let oracle_tests =
  [
    Support.oracle_test (module Lf_skiplist.Fr_skiplist.Atomic_int);
    Support.oracle_test (module Lf_skiplist.Seq_skiplist.Int);
    Support.oracle_test (module Lf_skiplist.Locked_skiplist.Int);
    Support.oracle_test (module Lf_skiplist.Fraser_skiplist.Atomic_int);
    Support.oracle_test (module Lf_skiplist.St_skiplist.Atomic_int);
  ]

(* --- Range and successor operations --- *)

let test_range_ops () =
  let t = SL.create () in
  Alcotest.(check (option (pair int int))) "empty min" None (SL.min_binding t);
  Alcotest.(check (option (pair int int))) "empty max" None (SL.max_binding t);
  Alcotest.(check (option (pair int int))) "empty ge" None (SL.find_ge t 3);
  List.iter (fun k -> ignore (SL.insert t k (k * 10))) [ 50; 10; 30; 20; 40 ];
  Alcotest.(check (option (pair int int))) "min" (Some (10, 100))
    (SL.min_binding t);
  Alcotest.(check (option (pair int int))) "max" (Some (50, 500))
    (SL.max_binding t);
  Alcotest.(check (option (pair int int))) "ge exact" (Some (30, 300))
    (SL.find_ge t 30);
  Alcotest.(check (option (pair int int))) "ge between" (Some (40, 400))
    (SL.find_ge t 31);
  Alcotest.(check (option (pair int int))) "ge above" None (SL.find_ge t 51);
  let range lo hi =
    List.rev (SL.fold_range t ~lo ~hi (fun acc k _ -> k :: acc) [])
  in
  Alcotest.(check (list int)) "range" [ 20; 30; 40 ] (range 15 45);
  Alcotest.(check (list int)) "inverted" [] (range 45 15);
  (* After deleting the max, max_binding moves left. *)
  ignore (SL.delete t 50);
  Alcotest.(check (option (pair int int))) "new max" (Some (40, 400))
    (SL.max_binding t)

let range_prop =
  Support.qcheck "skiplist range ops agree with a sorted-list oracle"
    QCheck2.Gen.(
      triple
        (list_size (int_bound 60) (int_bound 50))
        (int_bound 50) (int_bound 50))
    (fun (keys, lo, hi) ->
      let t = SL.create_with ~max_level:8 () in
      List.iter (fun k -> ignore (SL.insert t k k)) keys;
      let sorted = List.sort_uniq compare keys in
      let expect_ge = List.find_opt (fun k -> k >= lo) sorted in
      let got_ge = Option.map fst (SL.find_ge t lo) in
      let expect_range = List.filter (fun k -> k >= lo && k <= hi) sorted in
      let got_range =
        List.rev (SL.fold_range t ~lo ~hi (fun acc k _ -> k :: acc) [])
      in
      let expect_max =
        match List.rev sorted with [] -> None | k :: _ -> Some k
      in
      got_ge = expect_ge && got_range = expect_range
      && Option.map fst (SL.max_binding t) = expect_max)

(* --- Tower structure --- *)

let test_insert_with_height_builds_tower () =
  let t = SL.create_with ~max_level:8 () in
  Alcotest.(check bool) "insert" true (SL.insert_with_height t ~height:5 42 0);
  let counts = SL.level_counts t in
  Alcotest.(check (array int))
    "one node on each of levels 1-5"
    [| 1; 1; 1; 1; 1; 0; 0; 0 |]
    counts;
  let h = SL.height_histogram t in
  Alcotest.(check int) "one tower of height 5" 1 h.(5);
  SL.check_invariants t

let test_delete_removes_whole_tower () =
  let t = SL.create_with ~max_level:8 () in
  ignore (SL.insert_with_height t ~height:6 1 0);
  ignore (SL.insert_with_height t ~height:3 2 0);
  Alcotest.(check bool) "delete" true (SL.delete t 1);
  Alcotest.(check (array int))
    "only key 2's tower remains"
    [| 1; 1; 1; 0; 0; 0; 0; 0 |]
    (SL.level_counts t);
  Alcotest.(check bool) "delete 2" true (SL.delete t 2);
  Alcotest.(check (array int))
    "empty" [| 0; 0; 0; 0; 0; 0; 0; 0 |] (SL.level_counts t);
  SL.check_invariants t

let test_height_clamped () =
  let t = SL.create_with ~max_level:4 () in
  Alcotest.(check bool) "oversized height accepted" true
    (SL.insert_with_height t ~height:99 7 0);
  Alcotest.(check int) "clamped to max" 1 (SL.height_histogram t).(4);
  SL.check_invariants t

(* A list needs at least its level-1 head; with none, the first insert
   used to fail with an index error. *)
let test_max_level_rejected () =
  List.iter
    (fun max_level ->
      let msg =
        Printf.sprintf "Fr_skiplist.create_with: max_level %d < 1" max_level
      in
      Alcotest.check_raises
        (Printf.sprintf "create_with ~max_level:%d" max_level)
        (Invalid_argument msg)
        (fun () -> ignore (SL.create_with ~max_level ()));
      Alcotest.check_raises
        (Printf.sprintf "Pqueue.create ~max_level:%d" max_level)
        (Invalid_argument msg)
        (fun () -> ignore (Lf_pqueue.Pqueue.Atomic_int.create ~max_level ())))
    [ 0; -1 ]

(* --- Height distribution (EXP-7's property, small scale) --- *)

let test_height_distribution_geometric () =
  let t = SL.create_with ~max_level:20 () in
  for i = 1 to 20_000 do
    ignore (SL.insert t i i)
  done;
  let p, tv = Lf_kernel.Stats.geometric_fit (SL.height_histogram t) in
  Alcotest.(check bool)
    (Printf.sprintf "p=%.3f near 1/2" p)
    true
    (abs_float (p -. 0.5) < 0.03);
  Alcotest.(check bool) (Printf.sprintf "tv=%.3f small" tv) true (tv < 0.05)

let test_pugh_height_distribution () =
  let t = Pugh.create_with ~max_level:20 ~seed:77 () in
  for i = 1 to 20_000 do
    ignore (Pugh.insert t i i)
  done;
  let p, tv = Lf_kernel.Stats.geometric_fit (Pugh.height_histogram t) in
  Alcotest.(check bool) "p near 1/2" true (abs_float (p -. 0.5) < 0.03);
  Alcotest.(check bool) "tv small" true (tv < 0.05)

(* --- Interrupted insertion (Section 4): a deletion arriving while the
   tower is being built must stop the build and leave no residue. --- *)

let test_interrupted_insertion () =
  let t = SLS.create_with ~max_level:8 () in
  let inserter _ = ignore (SLS.insert_with_height t ~height:6 50 1) in
  let deleter _ = ignore (SLS.delete t 50) in
  let parked = ref false in
  let policy st =
    if not !parked then begin
      let c = Sim.counters st 0 in
      (* Park the inserter once the root and the level-2 node are in. *)
      if
        c.Lf_kernel.Counters.cas_successes.(Lf_kernel.Counters.kind_index
                                              Ev.Insertion) >= 2
      then begin
        parked := true;
        Some 1
      end
      else if Sim.is_finished st 0 then None
      else Some 0
    end
    else if not (Sim.is_finished st 1) then Some 1
    else if not (Sim.is_finished st 0) then Some 0
    else None
  in
  ignore (Sim.run ~policy:(Sim.Custom policy) [| inserter; deleter |]);
  Sim.quiet (fun () ->
      Alcotest.(check bool) "key gone" false (SLS.mem t 50);
      Alcotest.(check (array int))
        "no residue on any level"
        (Array.make 8 0)
        (SLS.level_counts t);
      SLS.check_invariants t)

(* --- Superfluous-node cleanup: searches remove towers whose root is
   marked. --- *)

let test_search_cleans_superfluous () =
  let t = SLS.create_with ~max_level:8 () in
  ignore
    (Sim.run
       [|
         (fun _ ->
           ignore (SLS.insert_with_height t ~height:6 10 0);
           ignore (SLS.insert_with_height t ~height:6 20 0);
           ignore (SLS.insert_with_height t ~height:6 30 0));
       |]);
  (* Delete 20 but stop the deleter right after the root is marked: the
     upper tower nodes remain, forming a superfluous tower. *)
  let deleter _ = ignore (SLS.delete t 20) in
  let policy st =
    let c = Sim.counters st 0 in
    if
      c.Lf_kernel.Counters.cas_successes.(Lf_kernel.Counters.kind_index
                                            Ev.Marking) >= 1
    then None (* abandon the deleter *)
    else if Sim.is_finished st 0 then None
    else Some 0
  in
  ignore (Sim.run ~policy:(Sim.Custom policy) [| deleter |]);
  let counts = Sim.quiet (fun () -> SLS.level_counts t) in
  Alcotest.(check bool) "superfluous residue exists" true (counts.(5) >= 2);
  (* A search whose per-level path crosses the superfluous tower (any key in
     (20, 30)) removes the leftover nodes at every level.  A search for 30
     itself would descend through tower 30 and only clean the top level -
     searches delete only the superfluous nodes they encounter. *)
  ignore (Sim.run [| (fun _ -> ignore (SLS.mem t 25)) |]);
  Sim.quiet (fun () ->
      Alcotest.(check (array int))
        "towers of 10 and 30 remain"
        [| 2; 2; 2; 2; 2; 2; 0; 0 |]
        (SLS.level_counts t);
      SLS.check_invariants t)

(* --- Simulator stress: invariants + conservation + linearizability --- *)

let test_sim_conservation () =
  List.iter
    (fun seed ->
      let t = SLS.create_with ~max_level:8 () in
      let net = ref 0 in
      let body pid =
        let rng = Lf_kernel.Splitmix.create (seed + (977 * pid)) in
        for _ = 1 to 100 do
          let k = Lf_kernel.Splitmix.int rng 20 in
          match Lf_kernel.Splitmix.int rng 3 with
          | 0 ->
              if
                SLS.insert_with_height t
                  ~height:(1 + Lf_kernel.Splitmix.int rng 5)
                  k k
              then incr net
          | 1 -> if SLS.delete t k then decr net
          | _ -> ignore (SLS.mem t k)
        done
      in
      ignore (Sim.run ~policy:(Sim.Random seed) (Array.make 3 body));
      Sim.quiet (fun () ->
          SLS.check_invariants t;
          Alcotest.(check int)
            (Printf.sprintf "conservation seed %d" seed)
            !net (SLS.length t)))
    [ 1; 2; 3; 4; 5; 6 ]

let test_sim_linearizable () =
  List.iter
    (fun seed ->
      let t = SLS.create_with ~max_level:6 () in
      let ops =
        Lf_workload.Sim_driver.
          {
            insert = (fun k -> SLS.insert t k k);
            delete = (fun k -> SLS.delete t k);
            find = (fun k -> SLS.mem t k);
          }
      in
      let h =
        Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed) ~procs:3
          ~ops_per_proc:15 ~key_range:6
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed ops
      in
      Support.assert_linearizable h)
    [ 61; 62; 63; 64 ]

(* --- Fraser-style baseline --- *)

let test_fraser_sim_conservation () =
  List.iter
    (fun seed ->
      let t = FraserS.create_with ~max_level:6 () in
      let net = ref 0 in
      let body pid =
        let rng = Lf_kernel.Splitmix.create (seed + (977 * pid)) in
        for _ = 1 to 100 do
          let k = Lf_kernel.Splitmix.int rng 20 in
          match Lf_kernel.Splitmix.int rng 3 with
          | 0 ->
              if
                FraserS.insert_with_height t
                  ~height:(1 + Lf_kernel.Splitmix.int rng 4)
                  k k
              then incr net
          | 1 -> if FraserS.delete t k then decr net
          | _ -> ignore (FraserS.mem t k)
        done
      in
      ignore (Sim.run ~policy:(Sim.Random seed) (Array.make 3 body));
      Sim.quiet (fun () ->
          FraserS.check_invariants t;
          Alcotest.(check int)
            (Printf.sprintf "fraser conservation seed %d" seed)
            !net (FraserS.length t)))
    [ 1; 2; 3; 4; 5; 6 ]

let test_fraser_sim_linearizable () =
  List.iter
    (fun seed ->
      let t = FraserS.create_with ~max_level:5 () in
      let ops =
        Lf_workload.Sim_driver.
          {
            insert = (fun k -> FraserS.insert t k k);
            delete = (fun k -> FraserS.delete t k);
            find = (fun k -> FraserS.mem t k);
          }
      in
      let h =
        Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed) ~procs:3
          ~ops_per_proc:15 ~key_range:6
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed ops
      in
      Support.assert_linearizable h)
    [ 91; 92; 93; 94; 95; 96 ]

let test_fraser_exhaustive_schedules () =
  let mk () =
    let t = FraserS.create_with ~max_level:3 () in
    Sim.quiet (fun () ->
        ignore (FraserS.insert_with_height t ~height:2 1 1);
        ignore (FraserS.insert_with_height t ~height:1 3 3));
    let clock = ref 0 in
    let entries = ref [] in
    let record pid op f =
      let inv = !clock in
      incr clock;
      let ok = f () in
      let ret = !clock in
      incr clock;
      entries := { Lf_lin.History.pid; op; ok; inv; ret } :: !entries
    in
    let scripts =
      [|
        (fun pid ->
          record pid (Lf_lin.History.Insert 2) (fun () ->
              FraserS.insert_with_height t ~height:2 2 2);
          record pid (Lf_lin.History.Delete 2) (fun () -> FraserS.delete t 2));
        (fun pid ->
          record pid (Lf_lin.History.Delete 1) (fun () -> FraserS.delete t 1);
          record pid (Lf_lin.History.Insert 2) (fun () ->
              FraserS.insert_with_height t ~height:3 2 2));
      |]
    in
    let check () =
      match Sim.quiet (fun () -> FraserS.check_invariants t) with
      | exception Failure m -> Error m
      | () -> (
          let h =
            List.sort
              (fun a b -> compare a.Lf_lin.History.inv b.Lf_lin.History.inv)
              !entries
          in
          let init = Lf_lin.Checker.IntSet.of_list [ 1; 3 ] in
          match Lf_lin.Checker.check ~init h with
          | Lf_lin.Checker.Linearizable -> Ok ()
          | Lf_lin.Checker.Not_linearizable -> Error "not linearizable")
    in
    (scripts, check)
  in
  let res = Lf_dsim.Explore.run ~max_preemptions:2 ~max_schedules:40_000 mk in
  match res.failures with
  | [] -> ()
  | (prefix, msg) :: _ ->
      Alcotest.failf "fraser: %s under [%s]" msg
        (String.concat ";" (List.map string_of_int prefix))

(* --- Sundell-Tsigas-style baseline --- *)

let test_st_sim_conservation () =
  List.iter
    (fun seed ->
      let t = StS.create_with ~max_level:6 () in
      let net = ref 0 in
      let body pid =
        let rng = Lf_kernel.Splitmix.create (seed + (977 * pid)) in
        for _ = 1 to 100 do
          let k = Lf_kernel.Splitmix.int rng 20 in
          match Lf_kernel.Splitmix.int rng 3 with
          | 0 ->
              if
                StS.insert_with_height t
                  ~height:(1 + Lf_kernel.Splitmix.int rng 4)
                  k k
              then incr net
          | 1 -> if StS.delete t k then decr net
          | _ -> ignore (StS.mem t k)
        done
      in
      ignore (Sim.run ~policy:(Sim.Random seed) (Array.make 3 body));
      Sim.quiet (fun () ->
          StS.check_invariants t;
          Alcotest.(check int)
            (Printf.sprintf "st conservation seed %d" seed)
            !net (StS.length t)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_st_sim_linearizable () =
  List.iter
    (fun seed ->
      let t = StS.create_with ~max_level:5 () in
      let ops =
        Lf_workload.Sim_driver.
          {
            insert = (fun k -> StS.insert t k k);
            delete = (fun k -> StS.delete t k);
            find = (fun k -> StS.mem t k);
          }
      in
      let h =
        Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed) ~procs:3
          ~ops_per_proc:15 ~key_range:6
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed ops
      in
      Support.assert_linearizable h)
    [ 71; 72; 73; 74; 75; 76 ]

let test_st_exhaustive_schedules () =
  let mk () =
    let t = StS.create_with ~max_level:3 () in
    Sim.quiet (fun () ->
        ignore (StS.insert_with_height t ~height:2 1 1);
        ignore (StS.insert_with_height t ~height:1 3 3));
    let clock = ref 0 in
    let entries = ref [] in
    let record pid op f =
      let inv = !clock in
      incr clock;
      let ok = f () in
      let ret = !clock in
      incr clock;
      entries := { Lf_lin.History.pid; op; ok; inv; ret } :: !entries
    in
    let scripts =
      [|
        (fun pid ->
          record pid (Lf_lin.History.Insert 2) (fun () ->
              StS.insert_with_height t ~height:2 2 2);
          record pid (Lf_lin.History.Delete 2) (fun () -> StS.delete t 2));
        (fun pid ->
          record pid (Lf_lin.History.Delete 1) (fun () -> StS.delete t 1);
          record pid (Lf_lin.History.Insert 2) (fun () ->
              StS.insert_with_height t ~height:3 2 2));
      |]
    in
    let check () =
      match Sim.quiet (fun () -> StS.check_invariants t) with
      | exception Failure m -> Error m
      | () -> (
          let h =
            List.sort
              (fun a b -> compare a.Lf_lin.History.inv b.Lf_lin.History.inv)
              !entries
          in
          let init = Lf_lin.Checker.IntSet.of_list [ 1; 3 ] in
          match Lf_lin.Checker.check ~init h with
          | Lf_lin.Checker.Linearizable -> Ok ()
          | Lf_lin.Checker.Not_linearizable -> Error "not linearizable")
    in
    (scripts, check)
  in
  let res = Lf_dsim.Explore.run ~max_preemptions:2 ~max_schedules:40_000 mk in
  match res.failures with
  | [] -> ()
  | (prefix, msg) :: _ ->
      Alcotest.failf "st: %s under [%s]" msg
        (String.concat ";" (List.map string_of_int prefix))

(* The ST backlink actually fires: park a traverser on a node, delete that
   node with a tall predecessor, resume - recovery must use the backlink
   (Backlink_step counted), not restart. *)
let test_st_backlink_recovery_fires () =
  let t = StS.create_with ~max_level:4 () in
  Sim.quiet (fun () ->
      ignore (StS.insert_with_height t ~height:4 10 0);
      (* tall pred *)
      ignore (StS.insert_with_height t ~height:4 20 0);
      (* victim *)
      ignore (StS.insert_with_height t ~height:1 30 0));
  let searcher _ = ignore (StS.mem t 30) in
  let deleter _ = ignore (StS.delete t 20) in
  (* Park the searcher once its walk reaches node 20 (2 curr-updates at the
     top level... simpler: after a fixed number of steps mid-walk), run the
     deleter fully, then resume. *)
  let parked = ref false in
  let policy st =
    let searcher_steps =
      let c = Sim.counters st 0 in
      c.Lf_kernel.Counters.reads + Lf_kernel.Counters.total_cas_attempts c
    in
    if (not !parked) && searcher_steps < 3 && not (Sim.is_finished st 0) then
      Some 0
    else begin
      parked := true;
      if not (Sim.is_finished st 1) then Some 1
      else if not (Sim.is_finished st 0) then Some 0
      else None
    end
  in
  let res = Sim.run ~policy:(Sim.Custom policy) [| searcher; deleter |] in
  ignore res;
  Sim.quiet (fun () ->
      Alcotest.(check bool) "30 still found" true (StS.mem t 30);
      StS.check_invariants t)

(* --- delete_min --- *)

let test_delete_min_sequential () =
  let t = SL.create () in
  List.iter (fun k -> ignore (SL.insert t k (k * 2))) [ 5; 1; 9; 3; 7 ];
  let order = ref [] in
  let rec drain () =
    match SL.delete_min t with
    | None -> ()
    | Some (k, v) ->
        Alcotest.(check int) "value" (k * 2) v;
        order := k :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending order" [ 1; 3; 5; 7; 9 ]
    (List.rev !order);
  Alcotest.(check bool) "empty" true (SL.delete_min t = None);
  SL.check_invariants t

let test_delete_min_unique_claims_sim () =
  let t = SLS.create_with ~max_level:6 () in
  ignore
    (Sim.run
       [| (fun _ -> for i = 1 to 30 do ignore (SLS.insert_with_height t ~height:((i mod 4) + 1) i i) done) |]);
  let claimed = Array.make 2 [] in
  let body pid =
    let rec go () =
      match SLS.delete_min t with
      | None -> ()
      | Some (k, _) ->
          claimed.(pid) <- k :: claimed.(pid);
          go ()
    in
    go ()
  in
  List.iter
    (fun seed ->
      claimed.(0) <- [];
      claimed.(1) <- [];
      let t' = SLS.create_with ~max_level:6 () in
      ignore
        (Sim.run
           [| (fun _ -> for i = 1 to 30 do ignore (SLS.insert_with_height t' ~height:((i mod 4) + 1) i i) done) |]);
      let body' pid =
        let rec go () =
          match SLS.delete_min t' with
          | None -> ()
          | Some (k, _) ->
              claimed.(pid) <- k :: claimed.(pid);
              go ()
        in
        go ()
      in
      ignore (Sim.run ~policy:(Sim.Random seed) [| body'; body' |]);
      let all = List.sort compare (claimed.(0) @ claimed.(1)) in
      Alcotest.(check (list int))
        (Printf.sprintf "each key claimed exactly once (seed %d)" seed)
        (List.init 30 (fun i -> i + 1))
        all)
    [ 71; 72; 73 ];
  ignore body;
  ignore t

(* --- Ablation: no superfluous helping (distinct keys only) --- *)

let test_ablation_no_helping_correct () =
  let t = SLS.create_with ~max_level:6 ~help_superfluous:false () in
  let next_key = ref 0 in
  let net = ref 0 in
  let live = ref [] in
  let body pid =
    let rng = Lf_kernel.Splitmix.create (500 + pid) in
    for _ = 1 to 80 do
      if Lf_kernel.Splitmix.bool rng || !live = [] then begin
        let k = !next_key in
        incr next_key;
        if SLS.insert_with_height t ~height:(1 + Lf_kernel.Splitmix.int rng 4) k k
        then begin
          incr net;
          live := k :: !live
        end
      end
      else
        match !live with
        | k :: rest ->
            live := rest;
            if SLS.delete t k then decr net
        | [] -> ()
    done
  in
  ignore (Sim.run ~policy:(Sim.Random 9) [| body; body |]);
  Sim.quiet (fun () ->
      Alcotest.(check int) "conservation" !net (SLS.length t))

(* --- Cell copies ---

   Every descriptor holds its right node's [succ] cell and every node its
   down node's, and [check_invariants] checks both copies physically.
   Checking after every operation catches a wrong copy before a walk
   follows it: a walk that follows a wrong cell need not come back. *)
let test_cells_after_every_op () =
  let t = SL.create_with ~max_level:4 () in
  let step what f =
    f ();
    try SL.check_invariants t
    with Failure msg -> Alcotest.failf "after %s: %s" what msg
  in
  let insert (k, height) =
    step (Printf.sprintf "insert %d" k) (fun () ->
        ignore (SL.insert_with_height t ~height k k))
  and delete k =
    step (Printf.sprintf "delete %d" k) (fun () -> ignore (SL.delete t k))
  in
  List.iter insert [ (5, 3); (2, 1); (8, 4); (6, 2); (3, 2) ];
  List.iter delete [ 6; 2; 8 ];
  List.iter insert [ (6, 4); (1, 2) ];
  Alcotest.(check (list int)) "keys" [ 1; 3; 5; 6 ]
    (List.map fst (SL.to_list t))

(* --- Placeholder keys --- *)

module SS = Lf_skiplist.Fr_skiplist.Atomic_string

let test_placeholder_int =
  Support.placeholder_keys (module SL) ~any:0 ~others:[ -1; 1; min_int; 7 ]

let test_placeholder_string =
  Support.placeholder_keys (module SS) ~any:"" ~others:[ "a"; "\000"; "zz" ]

(* --- Allocation budgets --- *)

(* Minor words per operation on a half-full skip list over keys [0, n):
   [ops] calls of [op] on uniform random keys, each measured on a fresh
   list holding the even keys.  A search must not allocate per level, so
   its words per op are small and do not grow with the tower heights a
   larger list brings. *)
let words_per_op ~n ~ops op =
  let t = SL.create () in
  for k = 0 to (n / 2) - 1 do
    ignore (SL.insert t (2 * k) k)
  done;
  let rng = Lf_kernel.Splitmix.create n in
  let keys = Array.init ops (fun _ -> Lf_kernel.Splitmix.int rng n) in
  let words =
    Support.words_during (fun () ->
        Array.iter (fun k -> ignore (Sys.opaque_identity (op t k))) keys)
  in
  words /. float_of_int ops

let check_budget name ~bar op =
  let words = words_per_op ~n:4096 ~ops:10_000 op in
  if words > bar then
    Alcotest.failf "%s allocates %.1f words/op at 4,096 keys (bar: %.0f)" name
      words bar

let test_find_alloc () = check_budget "find" ~bar:4. SL.find

let test_insert_alloc () =
  check_budget "insert" ~bar:40. (fun t k -> SL.insert t k k)

let test_delete_alloc () = check_budget "delete" ~bar:16. SL.delete

let test_find_alloc_flat () =
  let small = words_per_op ~n:256 ~ops:10_000 SL.find in
  let large = words_per_op ~n:16_384 ~ops:10_000 SL.find in
  if Float.abs (large -. small) > 1. then
    Alcotest.failf
      "find allocates %.1f words/op at 256 keys but %.1f at 16,384 keys"
      small large

(* Words reachable per key in a list of 16,384 keys: a node is one inline
   record, and no pointer to it goes through a box.  The random tower
   heights move the figure by about a word between 256 and 65,536 keys,
   so the bar sits two words above the 38 measured. *)
let test_footprint () =
  let n = 16_384 in
  let words t = Obj.reachable_words (Obj.repr t) in
  let empty = words (SL.create ()) in
  let t = SL.create () in
  for k = 0 to n - 1 do
    ignore (SL.insert t (2 * k) k)
  done;
  let per_key = float_of_int (words t - empty) /. float_of_int n in
  if per_key > 40. then
    Alcotest.failf "%.1f words reachable per key at 16,384 keys (bar: 40)"
      per_key

(* --- Multi-domain stress --- *)

let test_domain_stress () =
  let module D = Lf_skiplist.Fr_skiplist.Atomic_int in
  let t = D.create () in
  let net = Atomic.make 0 in
  let work did =
    let rng = Lf_kernel.Splitmix.create (did * 77) in
    let local = ref 0 in
    for _ = 1 to 10_000 do
      let k = Lf_kernel.Splitmix.int rng 64 in
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
  Alcotest.(check int) "conservation" (Atomic.get net) (D.length t)

(* --- The shipped instances --- *)

module Ref =
  Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_kernel.Atomic_mem)

let stream (module L : Lf_skiplist.Fr_skiplist.S with type key = int) script =
  let t = L.create () in
  let results =
    List.mapi
      (fun v (op, k, ks) : Support.result ->
        match op with
        | 0 -> Bool (L.insert t k v)
        | 1 -> Bool (L.delete t k)
        | 2 -> Elt (L.find t k)
        | 3 -> Bool (L.mem t k)
        | 4 -> Binding (L.find_ge t k)
        | 5 ->
            let hi = match ks with h :: _ -> h | [] -> k in
            Bindings (L.fold_range t ~lo:k ~hi (fun acc k v -> (k, v) :: acc) [])
        | 6 -> Binding (L.min_binding t)
        | 7 -> Binding (L.max_binding t)
        | 8 -> Binding (L.delete_min t)
        | _ -> Bool (L.insert_with_height t ~height:(1 + (v mod 6)) k v))
      script
  in
  L.check_invariants t;
  (results, L.to_list t)

let shipped_props =
  let module K = Lf_kernel.Ordered.Int in
  let module A = Lf_kernel.Atomic_mem in
  [
    Support.same_as_functor ~ops:10 "fr-skiplist" (stream (module SL))
      (stream (module Ref));
    Support.same_as_functor ~ops:4 "fraser-skiplist"
      (Support.dict_stream (module Lf_skiplist.Fraser_skiplist.Atomic_int))
      (Support.dict_stream (module Lf_skiplist.Fraser_skiplist.Make (K) (A)));
    Support.same_as_functor ~ops:4 "st-skiplist"
      (Support.dict_stream (module Lf_skiplist.St_skiplist.Atomic_int))
      (Support.dict_stream (module Lf_skiplist.St_skiplist.Make (K) (A)));
  ]

let () =
  Alcotest.run "skiplist"
    (Support.time_limited
       [
         ( "cells",
           [
             Alcotest.test_case "copies hold after every operation" `Quick
               test_cells_after_every_op;
           ] );
         ("oracle", oracle_tests);
         ("shipped instances", shipped_props);
         ("reinsert", [ Support.oracle_test ~key_range:6 ~len:200 (module SL) ]);
         ("retention", Support.retention_tests (module SL));
         ( "range ops",
           [ Alcotest.test_case "basics" `Quick test_range_ops; range_prop ] );
         ( "towers",
           [
             Alcotest.test_case "explicit height" `Quick
               test_insert_with_height_builds_tower;
             Alcotest.test_case "delete removes tower" `Quick
               test_delete_removes_whole_tower;
             Alcotest.test_case "height clamped" `Quick test_height_clamped;
             Alcotest.test_case "max_level < 1 rejected" `Quick
               test_max_level_rejected;
           ] );
         ( "height distribution",
           [
             Alcotest.test_case "fr geometric" `Quick
               test_height_distribution_geometric;
             Alcotest.test_case "pugh geometric" `Quick
               test_pugh_height_distribution;
           ] );
         ( "protocol",
           [
             Alcotest.test_case "interrupted insertion" `Quick
               test_interrupted_insertion;
             Alcotest.test_case "search cleans superfluous" `Quick
               test_search_cleans_superfluous;
           ] );
         ( "simulator",
           [
             Alcotest.test_case "conservation" `Quick test_sim_conservation;
             Alcotest.test_case "linearizable" `Quick test_sim_linearizable;
             Alcotest.test_case "ablation correct" `Quick
               test_ablation_no_helping_correct;
           ] );
         ( "fraser baseline",
           [
             Alcotest.test_case "sim conservation" `Quick
               test_fraser_sim_conservation;
             Alcotest.test_case "sim linearizable" `Quick
               test_fraser_sim_linearizable;
             Alcotest.test_case "exhaustive schedules" `Slow
               test_fraser_exhaustive_schedules;
           ] );
         ( "st baseline",
           [
             Alcotest.test_case "sim conservation" `Quick test_st_sim_conservation;
             Alcotest.test_case "sim linearizable" `Quick test_st_sim_linearizable;
             Alcotest.test_case "exhaustive schedules" `Slow
               test_st_exhaustive_schedules;
             Alcotest.test_case "backlink recovery" `Quick
               test_st_backlink_recovery_fires;
           ] );
         ( "delete_min",
           [
             Alcotest.test_case "sequential order" `Quick
               test_delete_min_sequential;
             Alcotest.test_case "unique claims" `Quick
               test_delete_min_unique_claims_sim;
           ] );
         ( "placeholder keys",
           [
             Alcotest.test_case "int key 0 at every height" `Quick
               test_placeholder_int;
             Alcotest.test_case "string key \"\" at every height" `Quick
               test_placeholder_string;
           ] );
         ( "allocation",
           [
             Alcotest.test_case "find budget" `Quick test_find_alloc;
             Alcotest.test_case "insert budget" `Quick test_insert_alloc;
             Alcotest.test_case "delete budget" `Quick test_delete_alloc;
             Alcotest.test_case "find flat in size" `Quick test_find_alloc_flat;
             Alcotest.test_case "footprint per key" `Quick test_footprint;
           ] );
         ("stress", [ Alcotest.test_case "domains" `Slow test_domain_stress ]);
       ])
