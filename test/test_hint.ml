(* Tests for the hint layer (Lf_kernel.Hint, per-domain predecessor caches)
   and for the hinted + batched entry points of the structures:

   - unit tests of the cache itself (slot per domain, counter totals,
     slots handed back by exited domains);
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
module Hint = Lf_kernel.Hint

(* ------------------------------------------------------------------ *)
(* Unit: the cache itself.                                             *)

(* A slot caches nothing while it holds the cache's [empty]; these
   helpers read and write it the way a structure does. *)
let empty = -1
let load (s : int Hint.slot) = if s.value == empty then None else Some s.value

let store (s : int Hint.slot) v =
  s.value <- v;
  s.stats.stores <- s.stats.stores + 1

let clear (s : int Hint.slot) = s.value <- empty
let note_hit (s : int Hint.slot) = s.stats.hits <- s.stats.hits + 1
let note_stale (s : int Hint.slot) = s.stats.stale <- s.stats.stale + 1
let note_miss (s : int Hint.slot) = s.stats.misses <- s.stats.misses + 1

let test_slot_roundtrip () =
  let h = Hint.create ~empty in
  Alcotest.(check (option int)) "initially empty" None (load (Hint.slot h));
  store (Hint.slot h) 42;
  Alcotest.(check (option int)) "stored" (Some 42) (load (Hint.slot h));
  store (Hint.slot h) 7;
  Alcotest.(check (option int)) "overwritten" (Some 7) (load (Hint.slot h));
  clear (Hint.slot h);
  Alcotest.(check (option int)) "cleared" None (load (Hint.slot h));
  let s = Hint.totals h in
  Alcotest.(check int) "stores counted" 2 s.Hint.stores

let test_instances_independent () =
  let a = Hint.create ~empty and b = Hint.create ~empty in
  store (Hint.slot a) 1;
  Alcotest.(check (option int)) "b untouched" None (load (Hint.slot b));
  note_hit (Hint.slot a);
  note_stale (Hint.slot b);
  note_miss (Hint.slot b);
  let sa = Hint.totals a and sb = Hint.totals b in
  Alcotest.(check int) "a hits" 1 sa.Hint.hits;
  Alcotest.(check int) "a stale" 0 sa.stale;
  Alcotest.(check int) "b stale" 1 sb.Hint.stale;
  Alcotest.(check int) "b misses" 1 sb.misses

let test_domains_isolated_and_summed () =
  let h = Hint.create ~empty in
  store (Hint.slot h) 1;
  note_hit (Hint.slot h);
  let child_saw_empty =
    Domain.join
      (Domain.spawn (fun () ->
           let s = Hint.slot h in
           let saw_empty = load s = None in
           store s 2;
           note_hit s;
           note_stale s;
           saw_empty))
  in
  Alcotest.(check bool) "fresh domain starts empty" true child_saw_empty;
  Alcotest.(check (option int))
    "parent slot survives" (Some 1)
    (load (Hint.slot h));
  let s = Hint.totals h in
  Alcotest.(check int) "summed hits" 2 s.Hint.hits;
  Alcotest.(check int) "summed stale" 1 s.stale;
  Alcotest.(check int) "summed stores" 2 s.stores

(* A domain hands its index back when it exits, and the next domain takes
   it over, so a cache holds a slot per domain alive at once, not one per
   domain ever spawned. *)
let test_exited_domains_hand_back_slots () =
  let h = Hint.create ~empty in
  for i = 1 to 64 do
    Domain.join (Domain.spawn (fun () -> store (Hint.slot h) i))
  done;
  let words = Obj.reachable_words (Obj.repr h) in
  if words > 100 then
    Alcotest.failf "%d words reachable after 64 sequential domains" words;
  Alcotest.(check int) "inherited counters summed" 64 (Hint.totals h).stores

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
    let rec_ = Lf_lin.Recorder.create () in
    let record pid op call = Lf_lin.Recorder.record rec_ ~pid op call in
    let scripts =
      [|
        (fun () ->
          record 0 (Lf_lin.History.Find 3) (fun () -> L.mem t 3);
          record 0 (Lf_lin.History.Find 1) (fun () -> L.mem t 1));
        (fun () -> record 1 (Lf_lin.History.Delete 3) (fun () -> L.delete t 3));
      |]
    in
    let check () =
      match Sim.quiet (fun () -> L.Debug.check_now t) with
      | Error m -> Error m
      | Ok () -> (
          match Sim.quiet (fun () -> L.check_invariants t) with
          | exception Failure m -> Error m
          | () ->
              let r =
                Lf_lin.Recorder.verdict
                  ~init:(Lf_lin.Checker.IntSet.of_list [ 1; 3 ])
                  rec_
              in
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
(* Batched operations agree with the sequential oracle.  The list's   *)
(* batches apply same-kind operations in key order with a stable      *)
(* sort, so duplicate keys keep input order and sequential            *)
(* input-order results are the exact expectation.                     *)

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
      let on : Lf_workload.Dict.t = mk_on () in
      let off : Lf_workload.Dict.t = mk_off () in
      List.for_all
        (fun (tag, k) ->
          match tag with
          | 0 -> on.insert k = off.insert k
          | 1 -> on.delete k = off.delete k
          | _ -> on.find k = off.find k)
        script)

(* The list's batches in its other two configurations: with the
   predecessor caches off (what [lfdict throughput --batch B --hints off]
   runs), and on the flagless ablation, whose [delete_batch] falls back
   to one deletion per element while insert and mem batches still carry
   their predecessor across flagless marks. *)
module List_nohints = struct
  include Lf_list.Fr_list.Atomic_int

  let name = "fr-list(-hints)"
  let create () = create_with ~use_hints:false ~use_flags:true ()
end

module List_flagless = struct
  include Lf_list.Fr_list.Atomic_int

  let name = "fr-list(noflag)"
  let create () = create_with ~use_flags:false ()
end

module List_dict = Lf_workload.Dict.Of (Lf_list.Fr_list.Atomic_int)

(* ------------------------------------------------------------------ *)
(* Multi-domain batch stress: conservation, linearizability of the      *)
(* batch-windowed history, and the protocol sanitizer.                  *)

let stress_batches (module D : Lf_workload.Runner.INT_DICT_BATCHED) ~domains
    ~batches ~batch ~key_range ~seed () =
  let t = D.create () in
  let rec_ = Lf_lin.Recorder.create () in
  let work did =
    let rng = Lf_kernel.Splitmix.create (seed + (131 * did)) in
    let balance = ref 0 in
    for _ = 1 to batches do
      let keys =
        List.init batch (fun _ -> Lf_kernel.Splitmix.int rng key_range)
      in
      let kind = Lf_kernel.Splitmix.int rng 3 in
      (* Batch elements share the batch-wide window: invocation before the
         call, return after it.  Sound for the interval-precedence
         linearizability checker (it only uses non-overlap ordering). *)
      let inv = Lf_lin.Recorder.tick rec_ in
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
      let ret = Lf_lin.Recorder.tick rec_ in
      Lf_lin.Recorder.add rec_
        (List.map
           (fun (op, ok) ->
             (match (op, ok) with
             | Lf_lin.History.Insert _, true -> incr balance
             | Lf_lin.History.Delete _, true -> decr balance
             | _ -> ());
             { Lf_lin.History.pid = did; op; ok; inv; ret })
           op_results)
    done;
    !balance
  in
  let spawned =
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work (i + 1)))
  in
  let first = work 0 in
  let per_domain = first :: List.map Domain.join spawned in
  D.check_invariants t;
  let balance = List.fold_left ( + ) 0 per_domain in
  Alcotest.(check int) "conservation: inserts - deletes = length" balance
    (D.length t);
  Support.assert_linearizable (Lf_lin.Recorder.history rec_)

let test_stress_list () =
  stress_batches
    (module Lf_list.Fr_list.Atomic_int)
    ~domains:3 ~batches:5 ~batch:4 ~key_range:8 ~seed:7 ()

let test_stress_list_nohints () =
  stress_batches
    (module List_nohints)
    ~domains:3 ~batches:5 ~batch:4 ~key_range:8 ~seed:8 ()

let test_stress_list_flagless () =
  stress_batches
    (module List_flagless)
    ~domains:3 ~batches:5 ~batch:4 ~key_range:8 ~seed:9 ()

(* The same stress through the protocol sanitizer: every C&S of every batch
   is validated against the deletion state machine; a violation raises. *)
module Checked_mem = Lf_check.Check_mem.Make (Lf_kernel.Atomic_mem)

module Checked_list = struct
  include Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Checked_mem)

  let name = "fr-list[checked]"
end

let test_stress_list_checked () =
  stress_batches
    (module Checked_list)
    ~domains:2 ~batches:4 ~batch:4 ~key_range:6 ~seed:10 ()

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
          Alcotest.test_case "exited domains hand back their slot" `Quick
            test_exited_domains_hand_back_slots;
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
          batch_oracle_test (module List_nohints);
          batch_oracle_test (module List_flagless);
        ] );
      ( "hints transparency",
        [
          hints_agreement_test "fr-list"
            ~mk_on:(fun () ->
              List_dict.make (Lf_list.Fr_list.Atomic_int.create ()))
            ~mk_off:(fun () ->
              List_dict.make
                (Lf_list.Fr_list.Atomic_int.create_with ~use_hints:false
                   ~use_flags:true ()));
        ] );
      ( "multi-domain stress",
        [
          Alcotest.test_case "list batches linearizable" `Slow test_stress_list;
          Alcotest.test_case "list batches linearizable, hints off" `Slow
            test_stress_list_nohints;
          Alcotest.test_case "flagless list batches linearizable" `Slow
            test_stress_list_flagless;
          Alcotest.test_case "list batches under Check_mem" `Slow
            test_stress_list_checked;
        ] );
    ]
