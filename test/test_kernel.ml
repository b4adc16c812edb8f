(* Unit and property tests for lf_kernel: PRNG, statistics, counters,
   bounded keys, and the workload generators. *)

module SM = Lf_kernel.Splitmix
module Stats = Lf_kernel.Stats
module Counters = Lf_kernel.Counters
module Ev = Lf_kernel.Mem_event

(* --- Splitmix --- *)

let test_splitmix_deterministic () =
  let a = SM.create 42 and b = SM.create 42 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (SM.int a 1_000_000) (SM.int b 1_000_000)
  done

let test_splitmix_seed_sensitivity () =
  let a = SM.create 1 and b = SM.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if SM.int a 1_000_000 = SM.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_splitmix_split_independent () =
  let parent = SM.create 7 in
  let child = SM.split parent in
  (* The child stream should not coincide with the parent's continuation. *)
  let coincide = ref 0 in
  for _ = 1 to 100 do
    if SM.int parent 1_000_000 = SM.int child 1_000_000 then incr coincide
  done;
  Alcotest.(check bool) "split independent" true (!coincide < 5)

let test_splitmix_bounds =
  Support.qcheck "int n stays in [0, n)" QCheck2.Gen.(pair int (1 -- 10000))
    (fun (seed, n) ->
      let rng = SM.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = SM.int rng n in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

(* [hash] is the first output of a stream seeded with its argument, over
   the whole int range. *)
let test_splitmix_hash =
  Support.qcheck ~count:2000 "hash s = bits (create s)" QCheck2.Gen.int
    (fun s -> SM.hash s = SM.bits (SM.create s))

let test_splitmix_hash_edges () =
  List.iter
    (fun s ->
      Alcotest.(check int) (string_of_int s) (SM.bits (SM.create s)) (SM.hash s))
    [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

let test_splitmix_uniformity () =
  let rng = SM.create 2024 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = SM.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 10)) > n / 50 then
        Alcotest.failf "bucket %d count %d too far from %d" i c (n / 10))
    buckets

let test_splitmix_float_range () =
  let rng = SM.create 5 in
  for _ = 1 to 10_000 do
    let f = SM.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float %f out of [0,1)" f
  done

(* --- Stats --- *)

let test_summarize () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.p50;
  Alcotest.(check int) "count" 5 s.count

let test_percentile_interpolates () =
  let sorted = [| 0.0; 10.0 |] in
  Alcotest.(check (float 1e-9)) "p50 between" 5.0 (Stats.percentile sorted 0.5)

let test_percentile_empty_raises () =
  Alcotest.check_raises "empty array"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 0.5))

let test_p999_tail () =
  (* 1000 samples 0..999: p999 interpolates just above the 998th. *)
  let s = Stats.summarize (Array.init 1000 float_of_int) in
  Alcotest.(check (float 1e-6)) "p999" 998.001 s.p999;
  Alcotest.(check (float 1e-6)) "p9999" 998.9001 s.p9999;
  Alcotest.(check (float 1e-9)) "p50" 499.5 s.p50

let test_of_weighted () =
  (* (value, count) pairs; percentiles step to the smallest value whose
     cumulative count reaches p * total. *)
  let s = Stats.of_weighted [| (1.0, 2); (5.0, 1); (10.0, 1); (7.0, 0) |] in
  Alcotest.(check int) "count" 4 s.count;
  Alcotest.(check (float 1e-9)) "mean" 4.25 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 10.0 s.max;
  Alcotest.(check (float 1e-9)) "p50 steps" 1.0 s.p50;
  Alcotest.(check (float 1e-9)) "p999 tail" 10.0 s.p999;
  Alcotest.(check (float 1e-9)) "p9999 tail" 10.0 s.p9999;
  (* Zero-count pairs contribute nothing; all-zero input = empty. *)
  let empty = Stats.of_weighted [| (3.0, 0) |] in
  Alcotest.(check int) "empty count" 0 empty.count

let test_linear_fit () =
  let pts = Array.init 20 (fun i -> (float_of_int i, 3.0 +. (2.0 *. float_of_int i))) in
  let a, b, r2 = Stats.linear_fit pts in
  Alcotest.(check (float 1e-6)) "intercept" 3.0 a;
  Alcotest.(check (float 1e-6)) "slope" 2.0 b;
  Alcotest.(check (float 1e-6)) "r2" 1.0 r2

let test_loglog_slope () =
  (* y = 5 * x^2 should fit slope 2. *)
  let pts = Array.init 10 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 5.0 *. (x ** 2.0)))
  in
  let k, r2 = Stats.loglog_slope pts in
  Alcotest.(check (float 1e-6)) "exponent" 2.0 k;
  Alcotest.(check (float 1e-6)) "r2" 1.0 r2

let test_geometric_fit () =
  (* An exact geometric(1/2) histogram fits with tiny total variation. *)
  let h = Array.make 12 0 in
  let total = 1 lsl 11 in
  for i = 1 to 11 do
    h.(i) <- total lsr i
  done;
  let p, tv = Stats.geometric_fit h in
  Alcotest.(check bool) "p near 1/2" true (abs_float (p -. 0.5) < 0.01);
  Alcotest.(check bool) "tv small" true (tv < 0.02)

(* --- Counters --- *)

let test_counters_roundtrip () =
  let c = Counters.create () in
  Counters.record_cas_attempt c Ev.Insertion;
  Counters.record_cas_attempt c Ev.Flagging;
  Counters.record_cas_success c Ev.Insertion;
  Counters.record c Ev.Backlink_step;
  Counters.record c Ev.Next_update;
  Counters.record c Ev.Curr_update;
  Counters.record c Ev.Aux_step;
  Alcotest.(check int) "attempts" 2 (Counters.total_cas_attempts c);
  Alcotest.(check int) "successes" 1 (Counters.total_cas_successes c);
  Alcotest.(check int) "essential" 6 (Counters.essential_steps c);
  let d = Counters.copy c in
  Counters.add_into ~into:d c;
  Alcotest.(check int) "doubled" 12 (Counters.essential_steps d);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.essential_steps c)

(* --- Counting memory --- *)

let test_counting_mem_counts () =
  let module L = Lf_list.Fr_list.Counting_int in
  Lf_kernel.Counting_mem.reset_all ();
  let t = L.create () in
  for i = 1 to 50 do
    ignore (L.insert t i i)
  done;
  for i = 1 to 25 do
    ignore (L.delete t (2 * i))
  done;
  let c = Lf_kernel.Counting_mem.grand_total () in
  (* 50 insertion successes, 25 deletions (flag+mark+unlink each). *)
  Alcotest.(check int) "insert successes" 50
    c.Lf_kernel.Counters.cas_successes.(Counters.kind_index Ev.Insertion);
  Alcotest.(check int) "flag successes" 25
    c.Lf_kernel.Counters.cas_successes.(Counters.kind_index Ev.Flagging);
  Alcotest.(check int) "mark successes" 25
    c.Lf_kernel.Counters.cas_successes.(Counters.kind_index Ev.Marking);
  Alcotest.(check bool) "reads counted" true (c.Lf_kernel.Counters.reads > 0);
  Alcotest.(check bool) "essential steps counted" true
    (Counters.essential_steps c > 100);
  Lf_kernel.Counting_mem.reset_all ();
  let c' = Lf_kernel.Counting_mem.grand_total () in
  Alcotest.(check int) "reset" 0 (Counters.essential_steps c')

let test_counting_mem_multidomain () =
  let module L = Lf_list.Fr_list.Counting_int in
  Lf_kernel.Counting_mem.reset_all ();
  let t = L.create () in
  let work did () =
    for i = 1 to 100 do
      ignore (L.insert t ((did * 1000) + i) i)
    done
  in
  let d = Domain.spawn (work 1) in
  work 0 ();
  Domain.join d;
  let c = Lf_kernel.Counting_mem.grand_total () in
  Alcotest.(check int) "all inserts counted across domains" 200
    c.Lf_kernel.Counters.cas_successes.(Counters.kind_index Ev.Insertion);
  Lf_kernel.Counting_mem.reset_all ()

(* --- Bounded keys --- *)

module B = Lf_kernel.Ordered.Bounded (Lf_kernel.Ordered.Int)

let test_bounded_order () =
  let open Lf_kernel.Ordered in
  Alcotest.(check bool) "-inf < 0" true (B.lt Neg_inf (Mid 0));
  Alcotest.(check bool) "0 < +inf" true (B.lt (Mid 0) Pos_inf);
  Alcotest.(check bool) "-inf < +inf" true (B.lt Neg_inf Pos_inf);
  Alcotest.(check bool) "1 < 2" true (B.lt (Mid 1) (Mid 2));
  Alcotest.(check bool) "2 = 2" true (B.equal (Mid 2) (Mid 2));
  Alcotest.(check bool) "+inf not < +inf" false (B.lt Pos_inf Pos_inf);
  Alcotest.(check bool) "+inf <= +inf" true (B.le Pos_inf Pos_inf)

let test_bounded_total =
  Support.qcheck "bounded compare is a total order consistent with Int"
    QCheck2.Gen.(pair small_int small_int)
    (fun (a, b) ->
      let open Lf_kernel.Ordered in
      compare a b = B.compare (Mid a) (Mid b)
      && B.lt Neg_inf (Mid a) && B.lt (Mid a) Pos_inf)

(* --- Workload generators --- *)

let test_keygen_uniform_range () =
  let rng = SM.create 3 in
  let g = Lf_workload.Keygen.uniform 100 in
  for _ = 1 to 1000 do
    let k = Lf_workload.Keygen.draw g rng in
    if k < 0 || k >= 100 then Alcotest.failf "uniform key %d out of range" k
  done

let test_keygen_hotspot_bias () =
  let rng = SM.create 4 in
  let g = Lf_workload.Keygen.hotspot ~range:1000 ~hot:10 ~hot_pct:90 () in
  let hot = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Lf_workload.Keygen.draw g rng < 10 then incr hot
  done;
  (* ~90% + the few uniform draws that land in [0,10). *)
  Alcotest.(check bool) "hotspot bias" true (!hot > (n * 85 / 100))

let test_keygen_zipf_skew () =
  let rng = SM.create 9 in
  let g = Lf_workload.Keygen.zipf ~range:1000 ~theta:0.9 in
  let low = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let k = Lf_workload.Keygen.draw g rng in
    if k < 0 || k >= 1000 then Alcotest.failf "zipf key %d out of range" k;
    if k < 10 then incr low
  done;
  (* Zipf(0.9) puts far more than 1% of mass on the first 10 of 1000 keys. *)
  Alcotest.(check bool) "zipf skew" true (!low > n / 10)

let test_keygen_ascending () =
  let rng = SM.create 1 in
  let g = Lf_workload.Keygen.ascending () in
  let prev = ref (-1) in
  for _ = 1 to 100 do
    let k = Lf_workload.Keygen.draw g rng in
    if k <> !prev + 1 then Alcotest.failf "ascending broke at %d" k;
    prev := k
  done

let test_opgen_ratios () =
  let rng = SM.create 6 in
  let g = Lf_workload.Keygen.uniform 100 in
  let mix = Lf_workload.Opgen.{ insert_pct = 30; delete_pct = 10 } in
  let i = ref 0 and d = ref 0 and f = ref 0 in
  let n = 30_000 in
  for _ = 1 to n do
    match Lf_workload.Opgen.draw mix g rng with
    | Lf_workload.Opgen.Insert _ -> incr i
    | Lf_workload.Opgen.Delete _ -> incr d
    | Lf_workload.Opgen.Find _ -> incr f
  done;
  let near pct got = abs (got - (n * pct / 100)) < n / 50 in
  Alcotest.(check bool) "insert ratio" true (near 30 !i);
  Alcotest.(check bool) "delete ratio" true (near 10 !d);
  Alcotest.(check bool) "find ratio" true (near 60 !f)

let () =
  Alcotest.run "kernel"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_splitmix_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick
            test_splitmix_split_independent;
          test_splitmix_bounds;
          test_splitmix_hash;
          Alcotest.test_case "hash edges" `Quick test_splitmix_hash_edges;
          Alcotest.test_case "uniformity" `Quick test_splitmix_uniformity;
          Alcotest.test_case "float range" `Quick test_splitmix_float_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "percentile" `Quick test_percentile_interpolates;
          Alcotest.test_case "percentile empty raises" `Quick
            test_percentile_empty_raises;
          Alcotest.test_case "p999 tail" `Quick test_p999_tail;
          Alcotest.test_case "of_weighted" `Quick test_of_weighted;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "loglog slope" `Quick test_loglog_slope;
          Alcotest.test_case "geometric fit" `Quick test_geometric_fit;
        ] );
      ( "counters",
        [
          Alcotest.test_case "roundtrip" `Quick test_counters_roundtrip;
          Alcotest.test_case "counting mem" `Quick test_counting_mem_counts;
          Alcotest.test_case "counting mem multidomain" `Quick
            test_counting_mem_multidomain;
        ] );
      ( "bounded keys",
        [
          Alcotest.test_case "order" `Quick test_bounded_order;
          test_bounded_total;
        ] );
      ( "workload generators",
        [
          Alcotest.test_case "uniform range" `Quick test_keygen_uniform_range;
          Alcotest.test_case "hotspot bias" `Quick test_keygen_hotspot_bias;
          Alcotest.test_case "zipf skew" `Quick test_keygen_zipf_skew;
          Alcotest.test_case "ascending" `Quick test_keygen_ascending;
          Alcotest.test_case "op mix ratios" `Quick test_opgen_ratios;
        ] );
    ]
