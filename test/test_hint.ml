(* Tests for the hint layer (Lf_kernel.Hint, per-domain predecessor caches)
   and for the hinted + batched entry points of the structures:

   - unit tests of the cache itself (slot per domain, counter totals);
   - deterministic simulator runs exercising hit/stale accounting on the
     list;
   - bounded-exhaustive Explore scenarios where a concurrent delete flags,
     marks and unlinks the hinted node in every <=2-preemption window
     around the hinted search, under the Check_mem protocol sanitizer with
     a linearizability oracle;
   - qcheck oracle tests for the batched operations and for hints-on /
     hints-off agreement;
   - multi-domain batch stress under lf_lin (batch elements share the
     batch-wide invocation/return window, sound for the interval-precedence
     checker) and under Check_mem. *)

module Sim = Lf_dsim.Sim
module Hint = Lf_kernel.Hint.Make (Lf_kernel.Atomic_mem)

(* ------------------------------------------------------------------ *)
(* Unit: the cache itself.                                             *)

let test_slot_roundtrip () =
  let h : int Hint.t = Hint.create () in
  Alcotest.(check (option int)) "initially empty" None (Hint.load h);
  Hint.store h 42;
  Alcotest.(check (option int)) "stored" (Some 42) (Hint.load h);
  Hint.store h 7;
  Alcotest.(check (option int)) "overwritten" (Some 7) (Hint.load h);
  Hint.clear h;
  Alcotest.(check (option int)) "cleared" None (Hint.load h);
  let s = Hint.totals h in
  Alcotest.(check int) "stores counted" 2 s.Lf_kernel.Hint.stores

let test_instances_independent () =
  let a : int Hint.t = Hint.create () and b : int Hint.t = Hint.create () in
  Hint.store a 1;
  Alcotest.(check (option int)) "b untouched" None (Hint.load b);
  Hint.note_hit a;
  Hint.note_stale b;
  Hint.note_miss b;
  let sa = Hint.totals a and sb = Hint.totals b in
  Alcotest.(check int) "a hits" 1 sa.Lf_kernel.Hint.hits;
  Alcotest.(check int) "a stale" 0 sa.stale;
  Alcotest.(check int) "b stale" 1 sb.Lf_kernel.Hint.stale;
  Alcotest.(check int) "b misses" 1 sb.misses

let test_domains_isolated_and_summed () =
  let h : int Hint.t = Hint.create () in
  Hint.store h 1;
  Hint.note_hit h;
  let child_saw_empty =
    Domain.join
      (Domain.spawn (fun () ->
           let empty = Hint.load h = None in
           Hint.store h 2;
           Hint.note_hit h;
           Hint.note_stale h;
           empty))
  in
  Alcotest.(check bool) "fresh domain starts empty" true child_saw_empty;
  Alcotest.(check (option int)) "parent slot survives" (Some 1) (Hint.load h);
  let s = Hint.totals h in
  Alcotest.(check int) "summed hits" 2 s.Lf_kernel.Hint.hits;
  Alcotest.(check int) "summed stale" 1 s.stale;
  Alcotest.(check int) "summed stores" 2 s.stores

(* ------------------------------------------------------------------ *)
(* Deterministic simulator runs: accounting on the structures.         *)

module SimList = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)

let stats_exn = function
  | Some (s : Lf_kernel.Hint.stats) -> s
  | None -> Alcotest.fail "hints unexpectedly disabled"

let test_list_accounting () =
  let t = SimList.create () in
  let body _pid =
    List.iter (fun k -> ignore (SimList.insert t k k)) [ 10; 20; 30 ];
    (* Repeated searches near the cached predecessor: hits. *)
    assert (SimList.mem t 30);
    assert (SimList.mem t 30);
    assert (SimList.delete t 30);
    (* The delete republished its predecessor; the lookup reuses it. *)
    assert (not (SimList.mem t 30));
    assert (SimList.mem t 20)
  in
  ignore (Sim.run [| body |]);
  let s = stats_exn (SimList.hint_stats t) in
  Alcotest.(check bool) "stores > 0" true (s.Lf_kernel.Hint.stores > 0);
  Alcotest.(check bool) "hits > 0" true (s.hits > 0);
  Alcotest.(check int) "one miss (first op)" 1 s.misses;
  Sim.quiet (fun () ->
      SimList.check_invariants t;
      match SimList.Debug.check_now t with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

let test_list_hints_off_no_stats () =
  let t = SimList.create_with ~use_hints:false ~use_flags:true () in
  let body _pid =
    ignore (SimList.insert t 1 1);
    assert (SimList.mem t 1)
  in
  ignore (Sim.run [| body |]);
  Alcotest.(check bool) "no stats when disabled" true
    (SimList.hint_stats t = None)

(* ------------------------------------------------------------------ *)
(* Bounded-exhaustive staleness: a concurrent delete flags, marks and    *)
(* unlinks the hinted node in every <=2-preemption window around the     *)
(* hinted search.  Runs under the protocol sanitizer; the oracle checks  *)
(* invariants and linearizability of the recorded history.  The hint is  *)
(* seeded before the run, so schedules where the delete has already      *)
(* marked (or unlinked) the hinted node exercise the stale-recovery      *)
(* path, and cumulative stats prove both paths were taken.               *)

(* Invocation tick, run the op, return tick: the ref is incremented at the
   real points of the cooperative schedule, exactly like the explorer's
   dict scenarios. *)
let record entries clock pid op run =
  let inv = !clock in
  incr clock;
  let ok = run () in
  let ret = !clock in
  incr clock;
  entries := { Lf_lin.History.pid; op; ok; inv; ret } :: !entries

let lin_oracle ~initial entries () =
  let h =
    List.sort
      (fun a b -> compare a.Lf_lin.History.inv b.Lf_lin.History.inv)
      !entries
  in
  let init =
    List.fold_left
      (fun s k -> Lf_lin.Checker.IntSet.add k s)
      Lf_lin.Checker.IntSet.empty initial
  in
  match Lf_lin.Checker.check ~init h with
  | Lf_lin.Checker.Linearizable -> Ok ()
  | Lf_lin.Checker.Not_linearizable -> Error "not linearizable"

let explore_list_staleness () =
  let hits = ref 0 and stale = ref 0 in
  let mk () =
    let module CM = Lf_check.Check_mem.Make (Lf_dsim.Sim_mem) in
    let module L = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (CM) in
    let t = L.create () in
    Sim.quiet (fun () -> List.iter (fun k -> ignore (L.insert t k k)) [ 1; 3 ]);
    (* Seed the hint at node 3 (the simulator's processes share the one
       real domain, hence one slot). *)
    Sim.quiet (fun () -> ignore (L.mem t 3));
    let clock = ref 0 and entries = ref [] in
    let scripts =
      [|
        (fun () ->
          record entries clock 0 (Lf_lin.History.Find 3) (fun () ->
              L.mem t 3);
          record entries clock 0 (Lf_lin.History.Find 1) (fun () -> L.mem t 1));
        (fun () ->
          record entries clock 1 (Lf_lin.History.Delete 3) (fun () ->
              L.delete t 3));
      |]
    in
    let check () =
      match Sim.quiet (fun () -> L.Debug.check_now t) with
      | Error m -> Error m
      | Ok () -> (
          match Sim.quiet (fun () -> L.check_invariants t) with
          | exception Failure m -> Error m
          | () ->
              let r = lin_oracle ~initial:[ 1; 3 ] entries () in
              (match L.hint_stats t with
              | Some s ->
                  hits := !hits + s.Lf_kernel.Hint.hits;
                  stale := !stale + s.stale
              | None -> ());
              r)
    in
    (Array.map (fun f _pid -> f ()) scripts, check)
  in
  let res = Lf_dsim.Explore.run ~max_preemptions:2 ~max_schedules:40_000 mk in
  (match res.failures with
  | [] -> ()
  | (prefix, msg) :: _ ->
      Alcotest.failf "%s under schedule [%s] (%d schedules)" msg
        (String.concat ";" (List.map string_of_int prefix))
        res.schedules_run);
  Alcotest.(check bool) "explored schedules" true (res.schedules_run > 10);
  Alcotest.(check bool) "hint hit in some schedule" true (!hits > 0);
  Alcotest.(check bool) "stale hint recovered in some schedule" true
    (!stale > 0)

(* ------------------------------------------------------------------ *)
(* Batched operations agree with the sequential oracle.  List and hash- *)
(* table batches apply same-kind operations in key order with a stable  *)
(* sort, skip-list batches in input order, so duplicate keys keep input *)
(* order and sequential input-order results are the exact expectation.  *)

let batch_oracle_test (module D : Lf_workload.Runner.INT_DICT_BATCHED) =
  Support.qcheck ~count:100
    (Printf.sprintf "%s batches agree with oracle" D.name)
    QCheck2.Gen.(
      list_size (int_bound 8)
        (pair (int_bound 2) (list_size (int_bound 12) (int_bound 15))))
    (fun batches ->
      let t = D.create () in
      let oracle = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (kind, keys) ->
          match kind with
          | 0 ->
              let got = D.insert_batch t (List.map (fun k -> (k, k)) keys) in
              let expected =
                List.map
                  (fun k ->
                    let fresh = not (Hashtbl.mem oracle k) in
                    if fresh then Hashtbl.replace oracle k k;
                    fresh)
                  keys
              in
              if got <> expected then ok := false
          | 1 ->
              let got = D.delete_batch t keys in
              let expected =
                List.map
                  (fun k ->
                    let present = Hashtbl.mem oracle k in
                    Hashtbl.remove oracle k;
                    present)
                  keys
              in
              if got <> expected then ok := false
          | _ ->
              let got = D.mem_batch t keys in
              let expected = List.map (Hashtbl.mem oracle) keys in
              if got <> expected then ok := false)
        batches;
      D.check_invariants t;
      let expected =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle [])
      in
      !ok && D.to_list t = expected)

(* Hints must be invisible in results: the same script on a hints-on and a
   hints-off structure returns identically. *)
let hints_agreement_test name ~mk_on ~mk_off =
  Support.qcheck ~count:100
    (Printf.sprintf "%s: hints on/off agree" name)
    (Support.ops_gen ~key_range:16 ~len:120)
    (fun script ->
      let insert_on, delete_on, find_on = mk_on () in
      let insert_off, delete_off, find_off = mk_off () in
      List.for_all
        (fun (tag, k) ->
          match tag with
          | 0 -> insert_on k = insert_off k
          | 1 -> delete_on k = delete_off k
          | _ -> find_on k = find_off k)
        script)

let list_ops create () =
  let t : int Lf_list.Fr_list.Atomic_int.t = create () in
  ( (fun k -> Lf_list.Fr_list.Atomic_int.insert t k k),
    (fun k -> Lf_list.Fr_list.Atomic_int.delete t k),
    fun k -> Lf_list.Fr_list.Atomic_int.mem t k )

(* ------------------------------------------------------------------ *)
(* Priority-queue batches.                                             *)

let test_pqueue_batches () =
  let module Q = Lf_pqueue.Pqueue.Atomic_int in
  let q = Q.create () in
  let results = Q.push_batch q [ (3, "c"); (1, "a"); (2, "b"); (3, "dup") ] in
  Alcotest.(check (list bool))
    "push results in input order"
    [ true; true; true; false ]
    results;
  Alcotest.(check (list (pair int string)))
    "pop_min_batch ascending"
    [ (1, "a"); (2, "b") ]
    (Q.pop_min_batch q 2);
  Alcotest.(check (list (pair int string)))
    "drains and stops" [ (3, "c") ] (Q.pop_min_batch q 5);
  let module SQ = Lf_pqueue.Pqueue.Stamped_atomic in
  let sq = SQ.create () in
  SQ.push_batch sq [ (2, "x"); (1, "y"); (2, "z") ];
  Alcotest.(check (list (pair int string)))
    "stamped: FIFO among equal priorities"
    [ (1, "y"); (2, "x"); (2, "z") ]
    (SQ.pop_min_batch sq 3)

(* ------------------------------------------------------------------ *)
(* Multi-domain batch stress: conservation, linearizability of the      *)
(* batch-windowed history, and the protocol sanitizer.                  *)

let stress_batches (module D : Lf_workload.Runner.INT_DICT_BATCHED) ~domains
    ~batches ~batch ~key_range ~seed () =
  let t = D.create () in
  let clock = Atomic.make 0 in
  let work did =
    let rng = Lf_kernel.Splitmix.create (seed + (131 * did)) in
    let entries = ref [] in
    let balance = ref 0 in
    for _ = 1 to batches do
      let keys =
        List.init batch (fun _ -> Lf_kernel.Splitmix.int rng key_range)
      in
      let kind = Lf_kernel.Splitmix.int rng 3 in
      (* Batch elements share the batch-wide window: invocation before the
         call, return after it.  Sound for the interval-precedence
         linearizability checker (it only uses non-overlap ordering). *)
      let inv = Atomic.fetch_and_add clock 1 in
      let op_results =
        match kind with
        | 0 ->
            List.combine
              (List.map (fun k -> Lf_lin.History.Insert k) keys)
              (D.insert_batch t (List.map (fun k -> (k, k)) keys))
        | 1 ->
            List.combine
              (List.map (fun k -> Lf_lin.History.Delete k) keys)
              (D.delete_batch t keys)
        | _ ->
            List.combine
              (List.map (fun k -> Lf_lin.History.Find k) keys)
              (D.mem_batch t keys)
      in
      let ret = Atomic.fetch_and_add clock 1 in
      List.iter
        (fun (op, ok) ->
          (match (op, ok) with
          | Lf_lin.History.Insert _, true -> incr balance
          | Lf_lin.History.Delete _, true -> decr balance
          | _ -> ());
          entries := { Lf_lin.History.pid = did; op; ok; inv; ret } :: !entries)
        op_results
    done;
    (!entries, !balance)
  in
  let spawned =
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work (i + 1)))
  in
  let first = work 0 in
  let per_domain = first :: List.map Domain.join spawned in
  D.check_invariants t;
  let balance = List.fold_left (fun acc (_, b) -> acc + b) 0 per_domain in
  Alcotest.(check int) "conservation: inserts - deletes = length" balance
    (D.length t);
  let h =
    List.concat_map fst per_domain
    |> List.sort (fun a b -> compare a.Lf_lin.History.inv b.Lf_lin.History.inv)
  in
  Support.assert_linearizable h

let test_stress_list () =
  stress_batches
    (module Lf_list.Fr_list.Atomic_int)
    ~domains:3 ~batches:5 ~batch:4 ~key_range:8 ~seed:7 ()

let test_stress_skiplist () =
  stress_batches
    (module Lf_skiplist.Fr_skiplist.Atomic_int)
    ~domains:3 ~batches:5 ~batch:4 ~key_range:8 ~seed:8 ()

let test_stress_hashtable () =
  stress_batches
    (module Lf_hashtable.Atomic_int)
    ~domains:3 ~batches:5 ~batch:4 ~key_range:8 ~seed:9 ()

(* The same stress through the protocol sanitizer: every C&S of every batch
   is validated against the deletion state machine; a violation raises. *)
module Checked_mem = Lf_check.Check_mem.Make (Lf_kernel.Atomic_mem)

module Checked_list = struct
  include Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Checked_mem)

  let name = "fr-list[checked]"
end

module Checked_skiplist = struct
  include Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Checked_mem)

  let name = "fr-skiplist[checked]"
end

let test_stress_list_checked () =
  stress_batches
    (module Checked_list)
    ~domains:2 ~batches:4 ~batch:4 ~key_range:6 ~seed:10 ()

let test_stress_skiplist_checked () =
  stress_batches
    (module Checked_skiplist)
    ~domains:2 ~batches:4 ~batch:4 ~key_range:6 ~seed:11 ()

let () =
  Alcotest.run "hint"
    [
      ( "cache",
        [
          Alcotest.test_case "slot roundtrip" `Quick test_slot_roundtrip;
          Alcotest.test_case "instances independent" `Quick
            test_instances_independent;
          Alcotest.test_case "domains isolated, totals summed" `Quick
            test_domains_isolated_and_summed;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "list hit/miss/store" `Quick test_list_accounting;
          Alcotest.test_case "list hints off" `Quick
            test_list_hints_off_no_stats;
        ] );
      ( "staleness (bounded-exhaustive)",
        [
          Alcotest.test_case "list: delete races hinted search" `Slow
            explore_list_staleness;
        ] );
      ( "batches",
        [
          batch_oracle_test (module Lf_list.Fr_list.Atomic_int);
          batch_oracle_test (module Lf_skiplist.Fr_skiplist.Atomic_int);
          batch_oracle_test (module Lf_hashtable.Atomic_int);
          Alcotest.test_case "pqueue batches" `Quick test_pqueue_batches;
        ] );
      ( "hints transparency",
        [
          hints_agreement_test "fr-list"
            ~mk_on:
              (list_ops (fun () -> Lf_list.Fr_list.Atomic_int.create ()))
            ~mk_off:
              (list_ops (fun () ->
                   Lf_list.Fr_list.Atomic_int.create_with ~use_hints:false
                     ~use_flags:true ()));
        ] );
      ( "multi-domain stress",
        [
          Alcotest.test_case "list batches linearizable" `Slow test_stress_list;
          Alcotest.test_case "skiplist batches linearizable" `Slow
            test_stress_skiplist;
          Alcotest.test_case "hashtable batches linearizable" `Slow
            test_stress_hashtable;
          Alcotest.test_case "list batches under Check_mem" `Slow
            test_stress_list_checked;
          Alcotest.test_case "skiplist batches under Check_mem" `Slow
            test_stress_skiplist_checked;
        ] );
    ]
