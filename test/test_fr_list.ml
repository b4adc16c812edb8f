(* Tests for the Fomitchev-Ruppert linked list: sequential semantics against
   an oracle, the INV 1-5 invariants under randomized simulator schedules,
   the three-step deletion protocol of Figure 2, backlink recovery, helping,
   linearizability, and multi-domain stress. *)

module FR = Lf_list.Fr_list.Atomic_int
module FRS = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module Sim = Lf_dsim.Sim
module Ev = Lf_kernel.Mem_event

(* Static interface conformance. *)
module _ : Support.INT_DICT = Lf_list.Fr_list.Atomic_int

(* The flagless ablation as a dictionary, for the tests that cover its
   marking site. *)
module Flagless = struct
  include FR

  let name = "fr-list(noflag)"
  let create () = FR.create_with ~use_flags:false ()
end

(* --- Sequential semantics --- *)

let oracle = Support.oracle_test (module FR)

let oracle_flagless =
  Support.qcheck "flagless ablation agrees with oracle"
    (Support.ops_gen ~key_range:16 ~len:120)
    (fun script ->
      let t = FR.create_with ~use_flags:false () in
      let expected =
        Support.run_against_oracle script
          ~insert:(fun k v -> FR.insert t k v)
          ~delete:(fun k -> FR.delete t k)
          ~find:(fun k -> FR.find t k)
      in
      FR.to_list t = expected)

(* A small key range deletes and re-inserts every key many times, so
   operations keep meeting marked nodes and recovering through backlinks. *)
let oracle_reinsert = Support.oracle_test ~key_range:6 ~len:200 (module FR)

let test_edges () =
  let t = FR.create () in
  Alcotest.(check bool) "delete on empty" false (FR.delete t 1);
  Alcotest.(check bool) "find on empty" true (FR.find t 1 = None);
  Alcotest.(check int) "empty length" 0 (FR.length t);
  Alcotest.(check bool) "insert" true (FR.insert t 0 10);
  Alcotest.(check bool) "dup" false (FR.insert t 0 99);
  Alcotest.(check bool) "value kept" true (FR.find t 0 = Some 10);
  Alcotest.(check bool) "min int key" true (FR.insert t min_int 1);
  Alcotest.(check bool) "max int key" true (FR.insert t max_int 2);
  Alcotest.(check (list (pair int int)))
    "sorted with extremes"
    [ (min_int, 1); (0, 10); (max_int, 2) ]
    (FR.to_list t);
  FR.check_invariants t

let test_mem_and_length () =
  let t = FR.create () in
  for i = 0 to 99 do
    ignore (FR.insert t i i)
  done;
  Alcotest.(check int) "length" 100 (FR.length t);
  Alcotest.(check bool) "mem" true (FR.mem t 50);
  ignore (FR.delete t 50);
  Alcotest.(check bool) "not mem" false (FR.mem t 50);
  Alcotest.(check int) "length" 99 (FR.length t)

(* --- Range and successor operations --- *)

let test_find_ge_and_min () =
  let t = FR.create () in
  Alcotest.(check (option (pair int int))) "empty" None (FR.find_ge t 0);
  Alcotest.(check (option (pair int int))) "empty min" None (FR.min_binding t);
  List.iter (fun k -> ignore (FR.insert t k (k * 10))) [ 10; 20; 30 ];
  Alcotest.(check (option (pair int int))) "exact" (Some (20, 200))
    (FR.find_ge t 20);
  Alcotest.(check (option (pair int int))) "between" (Some (20, 200))
    (FR.find_ge t 11);
  Alcotest.(check (option (pair int int))) "below all" (Some (10, 100))
    (FR.find_ge t (-5));
  Alcotest.(check (option (pair int int))) "above all" None (FR.find_ge t 31);
  Alcotest.(check (option (pair int int))) "min" (Some (10, 100))
    (FR.min_binding t)

let test_fold_range () =
  let t = FR.create () in
  for i = 1 to 20 do
    ignore (FR.insert t i i)
  done;
  let range lo hi =
    List.rev (FR.fold_range t ~lo ~hi (fun acc k _ -> k :: acc) [])
  in
  Alcotest.(check (list int)) "mid" [ 5; 6; 7 ] (range 5 7);
  Alcotest.(check (list int)) "clipped" [ 18; 19; 20 ] (range 18 99);
  Alcotest.(check (list int)) "empty" [] (range 30 40);
  Alcotest.(check (list int)) "inverted" [] (range 7 5);
  Alcotest.(check int) "all" 20 (List.length (range 1 20))

let range_prop =
  Support.qcheck "find_ge/fold_range agree with a sorted-list oracle"
    QCheck2.Gen.(
      triple
        (list_size (int_bound 60) (int_bound 50))
        (int_bound 50) (int_bound 50))
    (fun (keys, lo, hi) ->
      let t = FR.create () in
      List.iter (fun k -> ignore (FR.insert t k k)) keys;
      let sorted = List.sort_uniq compare keys in
      let expect_ge = List.find_opt (fun k -> k >= lo) sorted in
      let got_ge = Option.map fst (FR.find_ge t lo) in
      let expect_range = List.filter (fun k -> k >= lo && k <= hi) sorted in
      let got_range =
        List.rev (FR.fold_range t ~lo ~hi (fun acc k _ -> k :: acc) [])
      in
      got_ge = expect_ge && got_range = expect_range
      && Option.map fst (FR.min_binding t)
         = (match sorted with [] -> None | k :: _ -> Some k))

(* Range operations racing with updates: every observed range must be
   sorted, in-bounds, duplicate-free, and every key that was present for
   the whole run must appear. *)
let test_fold_range_concurrent () =
  List.iter
    (fun seed ->
      let t = FRS.create () in
      ignore
        (Sim.run
           [|
             (fun _ ->
               for i = 0 to 31 do
                 ignore (FRS.insert t i i)
               done);
           |]);
      (* Keys 0..9 are stable; 10..31 churn. *)
      let mutator pid =
        let rng = Lf_kernel.Splitmix.create (seed + pid) in
        for _ = 1 to 80 do
          let k = 10 + Lf_kernel.Splitmix.int rng 22 in
          if Lf_kernel.Splitmix.bool rng then ignore (FRS.delete t k)
          else ignore (FRS.insert t k k)
        done
      in
      let observer _ =
        for _ = 1 to 15 do
          let ks =
            List.rev (FRS.fold_range t ~lo:2 ~hi:25 (fun acc k _ -> k :: acc) [])
          in
          let rec sorted = function
            | a :: (b :: _ as tl) -> a < b && sorted tl
            | _ -> true
          in
          if not (sorted ks) then
            Alcotest.failf "unsorted/duplicated range (seed %d)" seed;
          List.iter
            (fun k ->
              if k < 2 || k > 25 then
                Alcotest.failf "key %d out of range (seed %d)" k seed)
            ks;
          (* Stable keys 2..9 must always be observed. *)
          for k = 2 to 9 do
            if not (List.mem k ks) then
              Alcotest.failf "stable key %d missing (seed %d)" k seed
          done
        done
      in
      ignore (Sim.run ~policy:(Sim.Random seed) [| mutator; mutator; observer |]))
    [ 1; 2; 3; 4 ]

(* --- Invariants INV 1-5 under randomized schedules --- *)

let sim_invariant_run ~seed ~procs ~ops =
  let t = FRS.create () in
  let body pid =
    let rng = Lf_kernel.Splitmix.create (seed + (131 * pid)) in
    for _ = 1 to ops do
      let k = Lf_kernel.Splitmix.int rng 24 in
      match Lf_kernel.Splitmix.int rng 3 with
      | 0 -> ignore (FRS.insert t k pid)
      | 1 -> ignore (FRS.delete t k)
      | _ -> ignore (FRS.find t k)
    done
  in
  let check st _pid =
    ignore st;
    match Sim.quiet (fun () -> FRS.Debug.check_now t) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "INV violated (seed %d): %s" seed msg
  in
  ignore
    (Sim.run ~policy:(Sim.Random seed) ~on_step:check
       (Array.make procs body));
  Sim.quiet (fun () -> FRS.check_invariants t)

let test_invariants_random_schedules () =
  List.iter
    (fun seed -> sim_invariant_run ~seed ~procs:3 ~ops:120)
    [ 1; 2; 3; 4; 5 ]

let invariants_prop =
  Support.qcheck ~count:25 "INV 1-5 hold at every step (random schedule)"
    QCheck2.Gen.(pair (int_bound 10_000) (2 -- 4))
    (fun (seed, procs) ->
      sim_invariant_run ~seed ~procs ~ops:60;
      true)

(* --- Figure 2: the three-step deletion protocol, observed step by step --- *)

let test_three_step_deletion_trace () =
  let t = FRS.create () in
  (* Build [10; 20; 30] sequentially. *)
  ignore
    (Sim.run
       [|
         (fun _ ->
           ignore (FRS.insert t 10 0);
           ignore (FRS.insert t 20 0);
           ignore (FRS.insert t 30 0));
       |]);
  (* Delete 20 one scheduler step at a time, recording the (flagged, marked)
     state of nodes 10 and 20 after every step. *)
  let states = ref [] in
  let snapshot () =
    let chain = Sim.quiet (fun () -> FRS.Debug.physical_chain t) in
    let state_of k =
      List.find_map
        (fun (c : FRS.Debug.cell) ->
          match c.key with
          | Lf_kernel.Ordered.Mid k' when k' = k ->
              Some (c.flagged, c.marked, c.backlink_key)
          | _ -> None)
        chain
    in
    states := (state_of 10, state_of 20) :: !states
  in
  ignore
    (Sim.run ~on_step:(fun _ _ -> snapshot ()) [| (fun _ -> ignore (FRS.delete t 20)) |]);
  let states = List.rev !states in
  (* Phase 1 must appear: 10 flagged while 20 present and unmarked. *)
  let phase1 =
    List.exists
      (function
        | Some (true, false, _), Some (false, false, _) -> true | _ -> false)
      states
  in
  (* Phase 2: 10 flagged, 20 marked with backlink pointing at 10. *)
  let phase2 =
    List.exists
      (function
        | Some (true, false, _), Some (false, true, Some (Lf_kernel.Ordered.Mid 10))
          ->
            true
        | _ -> false)
      states
  in
  (* Phase 3: 20 physically gone, 10 unflagged. *)
  let phase3 =
    match List.rev states with
    | (Some (false, false, _), None) :: _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "phase 1 (flag predecessor)" true phase1;
  Alcotest.(check bool) "phase 2 (backlink + mark)" true phase2;
  Alcotest.(check bool) "phase 3 (unlink + unflag)" true phase3;
  (* Order: phase1 index < phase2 index. *)
  let idx p =
    let rec go i = function
      | [] -> -1
      | s :: tl -> if p s then i else go (i + 1) tl
    in
    go 0 states
  in
  let i1 =
    idx (function
      | Some (true, false, _), Some (false, false, _) -> true
      | _ -> false)
  and i2 =
    idx (function
      | Some (true, false, _), Some (false, true, _) -> true
      | _ -> false)
  in
  Alcotest.(check bool) "flag before mark" true (i1 < i2)

(* --- Backlink recovery: the Section 3.1 mini-scenario --- *)

(* Proc 0 walks to its insertion point and is held right before its
   insertion C&S; proc 1 then deletes the insertion predecessor entirely.
   When proc 0 resumes it must fail the C&S, traverse a backlink, and
   succeed without restarting from the head. *)
let test_insert_recovers_via_backlink () =
  let t = FRS.create () in
  ignore
    (Sim.run
       [|
         (fun _ ->
           List.iter (fun k -> ignore (FRS.insert t k 0)) [ 10; 20; 30 ]);
       |]);
  let inserter _ = ignore (FRS.insert t 25 1) in
  let deleter _ = ignore (FRS.delete t 20) in
  let phase = ref `Park_inserter in
  let policy st =
    match !phase with
    | `Park_inserter -> (
        (* Run the inserter until it is about to perform its insertion CAS. *)
        match Sim.pending_kind st 0 with
        | Some (Lf_dsim.Sim_effect.Cas Ev.Insertion) ->
            phase := `Run_deleter;
            Some 1
        | _ -> if Sim.is_finished st 0 then None else Some 0)
    | `Run_deleter ->
        if not (Sim.is_finished st 1) then Some 1
        else begin
          phase := `Resume;
          Some 0
        end
    | `Resume -> if Sim.is_finished st 0 then None else Some 0
  in
  let res = Sim.run ~policy:(Sim.Custom policy) [| inserter; deleter |] in
  Sim.quiet (fun () ->
      FRS.check_invariants t;
      Alcotest.(check (list (pair int int)))
        "final contents"
        [ (10, 0); (25, 1); (30, 0) ]
        (FRS.to_list t));
  let c0 = res.per_proc.(0) in
  Alcotest.(check bool)
    "inserter used a backlink" true
    (c0.Lf_kernel.Counters.backlink_steps >= 1);
  (* Recovery must be local: the inserter's total traversal work should stay
     well below a restart-from-head (which Harris would pay). *)
  Alcotest.(check bool)
    "no restart from head" true
    (c0.Lf_kernel.Counters.curr_updates <= 6)

(* --- Helping: a stalled deleter is completed by an inserter --- *)

let test_helping_completes_deletion () =
  let t = FRS.create () in
  ignore
    (Sim.run
       [| (fun _ -> List.iter (fun k -> ignore (FRS.insert t k 0)) [ 10; 20 ]) |]);
  (* The inserter's key 15 has the flagged node 10 as insertion predecessor,
     so the inserter must help the parked deletion of 20 before it can
     proceed. *)
  let deleter _ = ignore (FRS.delete t 20) in
  let inserter _ = ignore (FRS.insert t 15 1) in
  let parked = ref false in
  let policy st =
    if not !parked then begin
      (* Run the deleter until its flagging CAS has succeeded, then park it
         forever. *)
      let c = Sim.counters st 0 in
      if c.Lf_kernel.Counters.cas_successes.(Lf_kernel.Counters.kind_index
                                               Ev.Flagging) >= 1
      then begin
        parked := true;
        Some 1
      end
      else if Sim.is_finished st 0 then None
      else Some 0
    end
    else if not (Sim.is_finished st 1) then Some 1
    else None (* leave the deleter parked: it must never be needed again *)
  in
  let res = Sim.run ~policy:(Sim.Custom policy) [| deleter; inserter |] in
  Sim.quiet (fun () ->
      (* The inserter helped the deletion of 20 to completion. *)
      Alcotest.(check (list (pair int int)))
        "final contents"
        [ (10, 0); (15, 1) ]
        (FRS.to_list t);
      FRS.check_invariants t);
  let c1 = res.per_proc.(1) in
  Alcotest.(check bool)
    "inserter performed helping work" true
    (c1.Lf_kernel.Counters.helps >= 1
    || Lf_kernel.Counters.total_cas_successes c1 >= 2)

(* --- Linearizability --- *)

let test_linearizable_sim_histories () =
  List.iter
    (fun seed ->
      let t = FRS.create () in
      let ops =
        Lf_workload.Sim_driver.
          {
            insert = (fun k -> FRS.insert t k k);
            delete = (fun k -> FRS.delete t k);
            find = (fun k -> FRS.mem t k);
          }
      in
      let h =
        Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed) ~procs:3
          ~ops_per_proc:15 ~key_range:6
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed ops
      in
      Support.assert_linearizable h)
    [ 11; 12; 13; 14; 15; 16 ]

let test_linearizable_domain_histories () =
  List.iter
    (fun seed ->
      let h =
        Lf_workload.Runner.run_recorded
          (module FR)
          ~domains:3 ~ops_per_domain:8 ~key_range:4
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed ()
      in
      Support.assert_linearizable h)
    [ 21; 22; 23 ]

(* --- Multi-domain stress with conservation check --- *)

let stress_conservation (module D : Support.INT_DICT) ~domains ~ops () =
  let t = D.create () in
  let net = Atomic.make 0 in
  let work did =
    let rng = Lf_kernel.Splitmix.create (did + 999) in
    let local = ref 0 in
    for _ = 1 to ops do
      let k = Lf_kernel.Splitmix.int rng 32 in
      match Lf_kernel.Splitmix.int rng 3 with
      | 0 -> if D.insert t k k then incr local
      | 1 -> if D.delete t k then decr local
      | _ -> ignore (D.find t k)
    done;
    ignore (Atomic.fetch_and_add net !local)
  in
  let ds = List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work (i + 1))) in
  work 0;
  List.iter Domain.join ds;
  D.check_invariants t;
  Alcotest.(check int)
    (D.name ^ " conservation")
    (Atomic.get net) (D.length t)

let test_domain_stress () =
  stress_conservation (module FR) ~domains:4 ~ops:20_000 ()

(* --- Layout: right keys, placeholder keys, allocation --- *)

(* Every linked descriptor carries a copy of its right node's key, and
   [check_invariants] checks the copy physically: after each operation of
   a script that inserts in front of, behind and between nodes and
   deletes first, middle and last nodes, so that every C&S site that
   builds a descriptor (INSERT, TRYFLAG, TRYMARK, HELPMARKED) runs. *)
let test_right_keys_after_every_op () =
  let t = FR.create () in
  let step what f =
    f ();
    try FR.check_invariants t
    with Failure msg -> Alcotest.failf "after %s: %s" what msg
  in
  let insert k =
    step (Printf.sprintf "insert %d" k) (fun () -> ignore (FR.insert t k k))
  and delete k =
    step (Printf.sprintf "delete %d" k) (fun () -> ignore (FR.delete t k))
  in
  List.iter insert [ 5; 2; 8; 6; 3; 9; 1 ];
  List.iter delete [ 6; 1; 9; 2 ];
  List.iter insert [ 6; 1; 9 ];
  List.iter delete [ 5; 3 ];
  Alcotest.(check (list int)) "keys" [ 1; 6; 8; 9 ] (List.map fst (FR.to_list t))

module FS = Lf_list.Fr_list.Atomic_string

module type ORDERED_LIST = sig
  include Support.BATCHED

  val find_ge : 'a t -> key -> (key * 'a) option
  val min_binding : 'a t -> (key * 'a) option

  val fold_range :
    'a t -> lo:key -> hi:key -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
end

(* [K.any] as a live key: the single operations and batches through
   [Support.batched_placeholder_keys], then the order-aware operations,
   alone and among [others]. *)
let placeholder_keys (type k) (module D : ORDERED_LIST with type key = k)
    ~(any : k) ~(others : k list) () =
  Support.batched_placeholder_keys (module D) ~any ~others ();
  List.iter
    (fun neighbours ->
      let expect what ok =
        if not ok then
          Alcotest.failf "%d other keys: %s" (List.length neighbours) what
      in
      let t = D.create () in
      expect "find_ge on an empty list" (D.find_ge t any = None);
      expect "min_binding on an empty list" (D.min_binding t = None);
      List.iteri
        (fun i k -> expect "insert another key" (D.insert t k (i + 1)))
        neighbours;
      expect "insert" (D.insert t any 0);
      let all =
        List.sort compare
          ((any, 0) :: List.mapi (fun i k -> (k, i + 1)) neighbours)
      in
      let lo = fst (List.hd all)
      and hi = fst (List.nth all (List.length all - 1)) in
      let range lo hi =
        List.rev (D.fold_range t ~lo ~hi (fun acc k v -> (k, v) :: acc) [])
      in
      expect "find_ge" (D.find_ge t any = Some (any, 0));
      expect "find_ge from the smallest key"
        (D.find_ge t lo = Some (List.hd all));
      expect "min_binding" (D.min_binding t = Some (List.hd all));
      expect "fold_range over every key" (range lo hi = all);
      expect "fold_range over the key alone" (range any any = [ (any, 0) ]);
      expect "delete" (D.delete t any);
      let rest = List.filter (fun (k, _) -> k <> any) all in
      expect "find_ge after delete"
        (D.find_ge t any = List.find_opt (fun (k, _) -> compare k any > 0) all);
      expect "min_binding after delete"
        (D.min_binding t = match rest with [] -> None | b :: _ -> Some b);
      expect "fold_range after delete" (range lo hi = rest);
      expect "fold_range over the key alone after delete" (range any any = []);
      D.check_invariants t)
    [ []; others ]

let test_placeholder_int =
  placeholder_keys (module FR) ~any:0 ~others:[ -1; 1; min_int; 7; max_int ]

let test_placeholder_string =
  placeholder_keys (module FS) ~any:"" ~others:[ "a"; "\000"; "zz" ]

(* Minor words per operation on a half-full list over keys [0, n): [ops]
   calls of [op] on uniform random keys, on a list holding the even keys.
   A step loads no key box and allocates nothing, and a node is one
   inline record that links and backlinks point at directly. *)
let words_per_op ~n ~ops op =
  let t = FR.create () in
  for k = 0 to (n / 2) - 1 do
    ignore (FR.insert t (2 * k) k)
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

let test_find_alloc () = check_budget "find" ~bar:11. FR.find

let test_insert_alloc () =
  check_budget "insert" ~bar:17. (fun t k -> FR.insert t k k)

let test_delete_alloc () = check_budget "delete" ~bar:16. FR.delete

(* Words reachable per key in a list of 16,384 keys: the inline node (6),
   its [Some] element (2), anchor (2), two cells (2 + 2) and descriptor
   (5) make 19. *)
let test_footprint () =
  let n = 16_384 in
  let words t = Obj.reachable_words (Obj.repr t) in
  let empty = words (FR.create ()) in
  let t = FR.create () in
  for k = 0 to n - 1 do
    ignore (FR.insert t (2 * k) k)
  done;
  let per_key = float_of_int (words t - empty) /. float_of_int n in
  if per_key > 19.5 then
    Alcotest.failf "%.1f words reachable per key at 16,384 keys (bar: 19.5)"
      per_key

(* --- The shipped instance --- *)

module Ref = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_kernel.Atomic_mem)

let stream (module L : Lf_list.Fr_list.S with type key = int) script =
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
        | 7 -> Bools (L.insert_batch t (List.map (fun k -> (k, v)) ks))
        | 8 -> Bools (L.delete_batch t ks)
        | _ -> Bools (L.mem_batch t ks))
      script
  in
  L.check_invariants t;
  (results, L.to_list t, L.hint_stats t)

let shipped_prop =
  Support.same_as_functor ~ops:10 "fr-list" (stream (module FR))
    (stream (module Ref))

let () =
  Alcotest.run "fr_list"
    (Support.time_limited
       [
         ( "sequential",
           [
             oracle;
             oracle_flagless;
             Alcotest.test_case "edges" `Quick test_edges;
             Alcotest.test_case "mem and length" `Quick test_mem_and_length;
             Alcotest.test_case "find_ge and min" `Quick test_find_ge_and_min;
             Alcotest.test_case "fold_range" `Quick test_fold_range;
             Alcotest.test_case "fold_range concurrent" `Quick
               test_fold_range_concurrent;
             range_prop;
           ] );
         ("reinsert", [ oracle_reinsert ]);
         ( "retention",
           Support.retention_tests (module FR)
           @ Support.churn_retention_tests (module FR)
           @ Support.churn_retention_tests (module Flagless)
           @ [ Support.dropped_retention_test (module FR) ~count:2_000 ~keys:32 ]
         );
         ( "invariants",
           [
             Alcotest.test_case "random schedules" `Quick
               test_invariants_random_schedules;
             invariants_prop;
           ] );
         ( "protocol",
           [
             Alcotest.test_case "three-step deletion (Fig. 2)" `Quick
               test_three_step_deletion_trace;
             Alcotest.test_case "insert recovers via backlink" `Quick
               test_insert_recovers_via_backlink;
             Alcotest.test_case "helping completes deletion" `Quick
               test_helping_completes_deletion;
           ] );
         ( "linearizability",
           [
             Alcotest.test_case "sim histories" `Quick
               test_linearizable_sim_histories;
             Alcotest.test_case "domain histories" `Quick
               test_linearizable_domain_histories;
           ] );
         ( "layout",
           [
             Alcotest.test_case "right keys hold after every operation" `Quick
               test_right_keys_after_every_op;
           ] );
         ( "placeholder keys",
           [
             Alcotest.test_case "int key 0" `Quick test_placeholder_int;
             Alcotest.test_case "string key \"\"" `Quick test_placeholder_string;
           ] );
         ( "allocation",
           [
             Alcotest.test_case "find budget" `Quick test_find_alloc;
             Alcotest.test_case "insert budget" `Quick test_insert_alloc;
             Alcotest.test_case "delete budget" `Quick test_delete_alloc;
             Alcotest.test_case "footprint per key" `Quick test_footprint;
           ] );
         ("shipped instance", [ shipped_prop ]);
         ("stress", [ Alcotest.test_case "domains" `Slow test_domain_stress ]);
       ])
