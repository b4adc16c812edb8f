(* Tests for the workload drivers: the throughput runner, the recorded
   bursts, and the simulator driver that feeds EXP-1. *)

module Sim = Lf_dsim.Sim
module FRS = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module FRS_dict = Lf_workload.Dict.Of (FRS)

let test_throughput_smoke () =
  let r =
    Lf_workload.Runner.run_throughput
      (module Lf_list.Fr_list.Atomic_int)
      ~domains:2 ~ops_per_domain:5_000 ~key_range:128
      ~mix:Lf_workload.Opgen.mixed ~seed:3 ()
  in
  Alcotest.(check int) "total ops" 10_000 r.total_ops;
  Alcotest.(check bool) "positive rate" true (r.ops_per_s > 0.0);
  Alcotest.(check string) "impl name" "fr-list" r.impl

(* The batched runner issues every operation of the stream through the
   list's batched entry points, in chunks of at most [batch]: an
   [ops_per_domain] that is not a multiple of [batch] leaves a short last
   chunk, not a lost or an extra one. *)
module Counted_batches = struct
  include Lf_list.Fr_list.Atomic_int

  let issued = Atomic.make 0
  let widest = Atomic.make 0

  let count l =
    let n = List.length l in
    ignore (Atomic.fetch_and_add issued n);
    let rec widen () =
      let w = Atomic.get widest in
      if n > w && not (Atomic.compare_and_set widest w n) then widen ()
    in
    widen ()

  let insert_batch t kvs = count kvs; insert_batch t kvs
  let delete_batch t ks = count ks; delete_batch t ks
  let mem_batch t ks = count ks; mem_batch t ks
end

let test_batched_throughput () =
  let r =
    Lf_workload.Runner.run_throughput_batched
      (module Counted_batches)
      ~domains:2 ~ops_per_domain:1_000 ~batch:16 ~key_range:128
      ~mix:Lf_workload.Opgen.mixed ~seed:3 ()
  in
  Alcotest.(check int) "total ops" 2_000 r.total_ops;
  Alcotest.(check int) "every op issued in a batch" 2_000
    (Atomic.get Counted_batches.issued);
  Alcotest.(check bool) "no batch wider than 16" true
    (Atomic.get Counted_batches.widest <= 16);
  Alcotest.(check bool) "batches hold several ops" true
    (Atomic.get Counted_batches.widest > 1);
  Alcotest.(check string) "impl name" "fr-list" r.impl

let test_batched_rejects_empty_batch () =
  Alcotest.check_raises "batch 0"
    (Invalid_argument "run_throughput_batched: batch must be > 0") (fun () ->
      ignore
        (Lf_workload.Runner.run_throughput_batched
           (module Lf_list.Fr_list.Atomic_int)
           ~domains:1 ~ops_per_domain:10 ~batch:0 ~key_range:8
           ~mix:Lf_workload.Opgen.mixed ~seed:1 ()))

let test_recorded_shape () =
  let h =
    Lf_workload.Runner.run_recorded
      (module Lf_list.Fr_list.Atomic_int)
      ~domains:2 ~ops_per_domain:10 ~key_range:8
      ~mix:Lf_workload.Opgen.write_heavy ~seed:5 ()
  in
  Alcotest.(check int) "entry count" 20 (List.length h);
  List.iter
    (fun (e : Lf_lin.History.entry) ->
      if e.inv >= e.ret then Alcotest.fail "inv must precede ret")
    h;
  Support.assert_linearizable h

(* The open-loop runner stamps arrivals on the one real clock: [serve],
   reading [Clock.real] itself, never sees an arrival from its future or
   from before the run began, and the report accounts for every arrival
   exactly once.  Inserts are served, deletes rejected, finds failed. *)
let test_open_loop () =
  let clock = Lf_obs.Clock.real () in
  let stale = Atomic.make 0 in
  let start = Lf_obs.Clock.now clock in
  let serve ~arrival_ns ~queue_depth:_ (op : Lf_workload.Opgen.op) =
    let now = Lf_obs.Clock.now clock in
    if arrival_ns > now || arrival_ns < start then Atomic.incr stale;
    match op with
    | Insert _ -> `Served true
    | Delete _ -> `Rejected
    | Find _ -> `Failed
  in
  let r =
    Lf_workload.Runner.run_open_loop ~rate:10_000 ~window_s:0.1 ~key_range:64
      ~mix:Lf_workload.Opgen.mixed ~seed:7 ~serve ()
  in
  Alcotest.(check int) "arrivals stamped inside the run, on the one clock" 0
    (Atomic.get stale);
  Alcotest.(check bool) "some arrivals handled" true (r.o_handled > 0);
  Alcotest.(check int) "offered = handled + leftover" r.o_offered
    (r.o_handled + r.o_leftover);
  Alcotest.(check int) "handled = served + rejected + failed" r.o_handled
    (r.o_served + r.o_rejected + r.o_failed);
  Alcotest.(check int) "every served arrival timed" r.o_served
    (Lf_obs.Hist.count r.o_latency)

(* Arrivals are stamped when they were due, not when the generator got
   round to enqueueing them: at 10,000/s every stamp lies a whole number
   of 100 µs periods after the first, however late the generator woke. *)
let test_open_loop_due_stamps () =
  let mu = Mutex.create () and stamps = ref [] in
  let serve ~arrival_ns ~queue_depth:_ _ =
    Mutex.lock mu;
    stamps := arrival_ns :: !stamps;
    Mutex.unlock mu;
    `Served true
  in
  let r =
    Lf_workload.Runner.run_open_loop ~rate:10_000 ~window_s:0.05 ~key_range:64
      ~mix:Lf_workload.Opgen.mixed ~seed:11 ~serve ()
  in
  Alcotest.(check int) "every handled arrival seen" r.o_handled
    (List.length !stamps);
  let first = List.fold_left min max_int !stamps in
  List.iter
    (fun a ->
      if (a - first) mod 100_000 <> 0 then
        Alcotest.failf "arrival %d is %d ns after the first, not a whole period"
          a (a - first))
    !stamps

let test_prefill_exact () =
  let t = FRS.create () in
  let n =
    Lf_workload.Sim_driver.prefill ~key_range:100 ~count:40 ~seed:1
      (FRS_dict.make t)
  in
  Alcotest.(check int) "prefill count" 40 n;
  Alcotest.(check int) "length" 40 (Sim.quiet (fun () -> FRS.length t))

let test_run_mixed_records () =
  let t = FRS.create () in
  let res =
    Lf_workload.Sim_driver.run_mixed ~policy:(Sim.Random 2) ~procs:3
      ~ops_per_proc:50 ~key_range:16
      ~mix:{ insert_pct = 40; delete_pct = 30 }
      ~seed:7 (FRS_dict.make t)
  in
  Alcotest.(check int) "op count" 150 (List.length res.ops);
  List.iter
    (fun (op : Sim.op_record) ->
      if op.n_at_start < 0 || op.n_at_start > 16 then
        Alcotest.failf "n(S)=%d out of range" op.n_at_start;
      if op.c_max < 1 || op.c_max > 3 then
        Alcotest.failf "c(S)=%d out of range" op.c_max;
      if not op.completed then Alcotest.fail "op should have completed")
    res.ops;
  Alcotest.(check bool) "essential positive" true (Sim.total_essential res > 0);
  Alcotest.(check bool) "bound positive" true (Sim.bound_sum res > 0)

let test_sim_driver_deterministic () =
  let run () =
    let t = FRS.create () in
    let res =
      Lf_workload.Sim_driver.run_mixed ~policy:(Sim.Random 9) ~procs:2
        ~ops_per_proc:40 ~key_range:8
        ~mix:{ insert_pct = 50; delete_pct = 30 }
        ~seed:11 (FRS_dict.make t)
    in
    (res.steps, Sim.total_essential res, Sim.bound_sum res,
     Sim.quiet (fun () -> FRS.to_list t))
  in
  Alcotest.(check bool) "deterministic" true (run () = run ())

let () =
  Alcotest.run "workload"
    [
      ( "runner",
        [
          Alcotest.test_case "throughput smoke" `Quick test_throughput_smoke;
          Alcotest.test_case "batched throughput" `Quick
            test_batched_throughput;
          Alcotest.test_case "batched rejects batch 0" `Quick
            test_batched_rejects_empty_batch;
          Alcotest.test_case "recorded shape" `Quick test_recorded_shape;
          Alcotest.test_case "open loop" `Quick test_open_loop;
          Alcotest.test_case "open-loop arrivals stamped when due" `Quick
            test_open_loop_due_stamps;
        ] );
      ( "sim driver",
        [
          Alcotest.test_case "prefill" `Quick test_prefill_exact;
          Alcotest.test_case "mixed records" `Quick test_run_mixed_records;
          Alcotest.test_case "deterministic" `Quick
            test_sim_driver_deterministic;
        ] );
    ]
