(* Tests for lf_obs: the ring buffer's window-and-drop accounting, the
   log-bucketed histogram, the contention profiler, the recorder's level
   gating (including the zero-allocation off path), determinism of
   simulator traces, and the well-formedness of both exporters.

   The recorder is module-level state, so every test that turns it on
   resets it and turns it off again; alcotest runs these sequentially in
   one process. *)

module Ring = Lf_obs.Ring
module Hist = Lf_obs.Hist
module Profile = Lf_obs.Profile
module Recorder = Lf_obs.Recorder
module Obs_event = Lf_obs.Obs_event
module Json = Lf_obs.Obs_json
module Ev = Lf_kernel.Mem_event

(* --- Ring --- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 0 in
  Alcotest.(check int) "empty" 0 (Ring.length r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "oldest first" [ 1; 2 ] (Ring.to_list r);
  Alcotest.(check int) "no drops yet" 0 (Ring.dropped r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 0 in
  for i = 1 to 6 do
    Ring.push r i
  done;
  Alcotest.(check int) "length capped" 4 (Ring.length r);
  Alcotest.(check int) "two dropped" 2 (Ring.dropped r);
  Alcotest.(check (list int)) "window ends at now" [ 3; 4; 5; 6 ]
    (Ring.to_list r);
  (* Retained + dropped always accounts for every push. *)
  Alcotest.(check int) "conservation" 6 (Ring.length r + Ring.dropped r);
  Ring.clear r 0;
  Alcotest.(check int) "clear empties" 0 (Ring.length r);
  Alcotest.(check int) "clear resets drops" 0 (Ring.dropped r)

let test_ring_bad_capacity () =
  match Ring.create ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

(* --- Hist --- *)

let test_hist_buckets () =
  (* Every value lands in the bucket [index_of] names, and indices are
     monotone in the value. *)
  let vals =
    [ 0; 1; 15; 16; 17; 100; 1023; 1024; 1_000_000;
      (* around the coarse/fine regime boundary (the ~1 ms octave) *)
      (1 lsl 20) - 1; 1 lsl 20; (1 lsl 20) + 1; 3_999_700; 4_000_000;
      123_456_789 ]
  in
  List.iter
    (fun v ->
      let i = Hist.index_of v in
      if not (Hist.bucket_low i <= v && v < Hist.bucket_high i) then
        Alcotest.failf "value %d outside its bucket [%d, %d)" v
          (Hist.bucket_low i) (Hist.bucket_high i))
    vals;
  let rec mono = function
    | a :: (b :: _ as rest) ->
        if Hist.index_of a > Hist.index_of b then
          Alcotest.failf "index_of not monotone at %d, %d" a b;
        mono rest
    | _ -> ()
  in
  mono vals

let test_hist_percentiles () =
  let h = Hist.create () in
  for v = 0 to 999 do
    Hist.add h v
  done;
  Alcotest.(check int) "count" 1000 (Hist.count h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 999 (Hist.max_value h);
  (* Bucket-midpoint representatives: within the 6.25% quantization
     bound of the true percentile. *)
  let p50 = Hist.percentile h 0.5 in
  if Float.abs (p50 -. 499.5) > 0.0625 *. 499.5 +. 1.0 then
    Alcotest.failf "p50 %f too far from 499.5" p50;
  (* The tail quantile reports the exact maximum, not a midpoint. *)
  Alcotest.(check (float 1e-9)) "p100 is max" 999.0 (Hist.percentile h 1.0)

let test_hist_tail_resolution () =
  (* The fine regime keeps multi-millisecond values distinguishable: values
     1% apart above ~1 ms land in distinct buckets (quantization error is
     0.78% there), so p999 and p9999 cannot collapse to one representative
     the way 6.25%-wide buckets made them in EXP-19. *)
  let a = 3_200_000 and b = 3_232_000 in
  if Hist.index_of a = Hist.index_of b then
    Alcotest.failf "values %d and %d share a bucket" a b;
  let h = Hist.create () in
  for _ = 1 to 9_998 do
    Hist.add h 10_000
  done;
  Hist.add h a;
  Hist.add h b;
  let p999 = Hist.percentile h 0.999 and p9999 = Hist.p9999 h in
  Alcotest.(check bool) "tail quantiles distinct" true (p999 < p9999)

let test_hist_empty_raises () =
  let h = Hist.create () in
  match Hist.percentile h 0.5 with
  | _ -> Alcotest.fail "percentile on empty histogram returned"
  | exception Invalid_argument _ -> ()

let test_hist_merge () =
  (* Merging per-domain histograms then reading percentiles equals
     recording everything into one. *)
  let a = Hist.create () and b = Hist.create () and all = Hist.create () in
  for v = 0 to 499 do
    Hist.add a v;
    Hist.add all v
  done;
  for v = 500 to 999 do
    Hist.add b (v * 3);
    Hist.add all (v * 3)
  done;
  let m = Hist.create () in
  Hist.merge_into ~into:m a;
  Hist.merge_into ~into:m b;
  Alcotest.(check int) "count" (Hist.count all) (Hist.count m);
  Alcotest.(check int) "sum" (Hist.sum all) (Hist.sum m);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f" (p *. 100.))
        (Hist.percentile all p) (Hist.percentile m p))
    [ 0.5; 0.9; 0.99; 1.0 ]

(* --- Profile --- *)

let test_profile_report () =
  let p = Profile.create () in
  Profile.record p ~key:5 Ev.Flagging;
  Profile.record p ~key:5 Ev.Flagging;
  Profile.record p ~key:5 Ev.Insertion;
  Profile.record p ~key:9 Ev.Marking;
  Profile.record p ~key:Profile.no_key Ev.Physical_delete;
  let r = Profile.report p in
  Alcotest.(check int) "total" 5 r.r_total;
  (match r.r_by_phase with
  | (phase, fails) :: _ ->
      Alcotest.(check string) "hottest phase" "flag" phase;
      Alcotest.(check int) "flag fails" 2 fails
  | [] -> Alcotest.fail "empty phase ranking");
  (match r.r_hot_keys with
  | hk :: _ ->
      Alcotest.(check int) "hottest key" 5 hk.Profile.hk_key;
      Alcotest.(check int) "its fails" 3 hk.Profile.hk_fails;
      Alcotest.(check string) "its dominant phase" "flag" hk.Profile.hk_phase
  | [] -> Alcotest.fail "empty hot-key ranking");
  (* The no-span sentinel counts toward phases but never ranks as a key. *)
  List.iter
    (fun hk ->
      if hk.Profile.hk_key = Profile.no_key then
        Alcotest.fail "sentinel key ranked")
    r.r_hot_keys

(* --- The one clock --- *)

(* The real clock resolves back-to-back reads: of 1,000 consecutive reads
   at least 900 are distinct, none is smaller than the one before, and a
   read allocates nothing.  A microsecond wall clock repeats most of its
   back-to-back reads. *)
let test_real_clock_resolution () =
  let c = Lf_obs.Clock.real () in
  let n = 1000 in
  let reads = Array.make n 0 in
  let words =
    Support.words_during (fun () ->
        for i = 0 to n - 1 do
          reads.(i) <- Lf_obs.Clock.now c
        done)
  in
  let distinct = ref 1 in
  for i = 1 to n - 1 do
    if reads.(i) < reads.(i - 1) then
      Alcotest.failf "read %d went back: %d after %d" i reads.(i) reads.(i - 1);
    if reads.(i) <> reads.(i - 1) then incr distinct
  done;
  if !distinct < 900 then
    Alcotest.failf "%d distinct values in %d reads (bar: 900)" !distinct n;
  Alcotest.(check (float 0.)) "minor words per read" 0. (words /. float_of_int n)

(* --- Recorder level gating --- *)

let with_recorder ~level ~clock f =
  Recorder.set_level Recorder.Off;
  Recorder.reset ();
  Recorder.set_clock clock;
  Recorder.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Recorder.set_level Recorder.Off;
      Recorder.set_clock Recorder.Real)
    f

let test_off_records_nothing () =
  Recorder.set_level Recorder.Off;
  Recorder.reset ();
  Recorder.on_read ();
  Recorder.on_cas Ev.Insertion true;
  Recorder.on_event Ev.Retry;
  Recorder.span_begin ~op:Obs_event.Insert ~key:1;
  Recorder.span_end ~op:Obs_event.Insert ~ok:true;
  let c = Recorder.tallies () in
  Alcotest.(check int) "no reads" 0 c.Lf_kernel.Counters.reads;
  Alcotest.(check int) "no retries" 0 c.Lf_kernel.Counters.retries;
  Alcotest.(check int) "no events" 0 (Recorder.event_count ());
  List.iter
    (fun (_, n) -> Alcotest.(check int) "no ops" 0 n)
    (Recorder.ops_counts ())

let test_off_fast_path_no_alloc () =
  Recorder.set_level Recorder.Off;
  Recorder.reset ();
  (* Warm up so any one-time allocation is out of the measured window. *)
  Recorder.on_read ();
  Recorder.on_cas Ev.Flagging false;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Recorder.on_read ();
    Recorder.on_write ();
    Recorder.on_cas Ev.Flagging false;
    Recorder.on_event Ev.Retry;
    Recorder.span_begin ~op:Obs_event.Delete ~key:7;
    Recorder.span_end ~op:Obs_event.Delete ~ok:true
  done;
  let dw = Gc.minor_words () -. w0 in
  (* 60k disabled entry points: a per-call allocation would show as
     >= 120k words.  Allow slack for the Gc.minor_words calls. *)
  if dw > 256.0 then Alcotest.failf "off path allocated %.0f words" dw

(* At [Histograms] a span pair writes the lane's key and start slots
   and reads them back: no per-span record, table entry or box.  The
   real clock is the one [serve] runs on. *)
let test_histogram_span_no_alloc () =
  with_recorder ~level:Recorder.Histograms ~clock:Recorder.Real (fun () ->
      Recorder.span_begin ~op:Obs_event.Find ~key:0;
      Recorder.span_end ~op:Obs_event.Find ~ok:true;
      let n = 10_000 in
      let words =
        Support.words_during (fun () ->
            for k = 1 to n do
              Recorder.span_begin ~op:Obs_event.Find ~key:k;
              Recorder.span_end ~op:Obs_event.Find ~ok:true
            done)
      in
      Alcotest.(check int) "every span timed" (n + 1)
        (Hist.count (Recorder.latency Obs_event.Find));
      let per_pair = words /. float_of_int n in
      if per_pair > 1. then
        Alcotest.failf "a Histograms span pair allocates %.1f words (bar: 1)"
          per_pair)

let test_counters_level () =
  with_recorder ~level:Recorder.Counters ~clock:Recorder.Real (fun () ->
      Recorder.on_read ();
      (* read tallying starts at Histograms *)
      Recorder.on_cas Ev.Flagging true;
      Recorder.on_cas Ev.Flagging false;
      Recorder.on_event Ev.Retry;
      Recorder.span_end ~op:Obs_event.Find ~ok:true;
      let c = Recorder.tallies () in
      let fi = Lf_kernel.Counters.kind_index Ev.Flagging in
      Alcotest.(check int) "cas attempts" 2
        c.Lf_kernel.Counters.cas_attempts.(fi);
      Alcotest.(check int) "cas successes" 1
        c.Lf_kernel.Counters.cas_successes.(fi);
      Alcotest.(check int) "retries" 1 c.Lf_kernel.Counters.retries;
      Alcotest.(check int) "reads gated" 0 c.Lf_kernel.Counters.reads;
      Alcotest.(check int) "ops counted" 1
        (List.assoc Obs_event.Find (Recorder.ops_counts ()));
      Alcotest.(check int) "no ring events" 0 (Recorder.event_count ()))

let test_histogram_level_spans () =
  with_recorder ~level:Recorder.Histograms
    ~clock:(Recorder.Manual (let t = ref 0 in fun () -> incr t; !t * 100))
    (fun () ->
      Recorder.span_begin ~op:Obs_event.Insert ~key:3;
      Recorder.on_cas Ev.Insertion false;
      (* failed C&S inside the span: attributed to key 3 *)
      Recorder.span_end ~op:Obs_event.Insert ~ok:true;
      let h = Recorder.latency Obs_event.Insert in
      Alcotest.(check int) "one latency sample" 1 (Hist.count h);
      let r = Recorder.profile_report () in
      Alcotest.(check int) "one failure" 1 r.Profile.r_total;
      match r.Profile.r_hot_keys with
      | [ hk ] ->
          Alcotest.(check int) "attributed key" 3 hk.Profile.hk_key;
          Alcotest.(check string) "attributed phase" "insert"
            hk.Profile.hk_phase
      | l -> Alcotest.failf "expected one hot key, got %d" (List.length l))

(* --- Simulator traces: determinism and exporter well-formedness --- *)

module Traced_sim = Lf_obs.Trace_mem.Make (Lf_dsim.Sim_mem)
module FRS = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Traced_sim)

let sim_trace ~seed =
  with_recorder ~level:Recorder.Tracing ~clock:Recorder.Sim_steps (fun () ->
      let t = FRS.create () in
      let module D = Lf_workload.Dict.Of (FRS) in
      let ops = D.make t in
      ignore
        (Lf_workload.Sim_driver.run_mixed
           ~policy:(Lf_dsim.Sim.Random seed) ~procs:4 ~ops_per_proc:40
           ~key_range:32
           ~mix:{ insert_pct = 40; delete_pct = 40 }
           ~seed ops);
      Lf_obs.Chrome_trace.to_string (Recorder.events ()))

let test_sim_trace_deterministic () =
  let a = sim_trace ~seed:11 in
  let b = sim_trace ~seed:11 in
  Alcotest.(check bool) "non-trivial" true (String.length a > 200);
  Alcotest.(check string) "byte-identical across reruns" a b

(* The one JSON string escaper, shared by the trace and flight exporters,
   the bench rows and the model-check reports: a string holding a quote, a
   backslash and control characters reads back intact, and the reader
   rejects any raw control character the escaper let through. *)
let test_escape_roundtrip () =
  let s = "q\"b\\n\nr\rt\tc\x01." in
  match Lf_obs.Obs_json.parse ("\"" ^ Lf_obs.Chrome_trace.escape s ^ "\"") with
  | Ok (Lf_obs.Obs_json.Str back) -> Alcotest.(check string) "round trip" s back
  | Ok _ -> Alcotest.fail "not a JSON string"
  | Error e -> Alcotest.failf "escaped string does not parse: %s" e

let test_chrome_trace_well_formed () =
  let s = sim_trace ~seed:3 in
  (match Lf_obs.Chrome_trace.check s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checker rejected trace: %s" e);
  (* Independent look with the JSON reader: spans pair up and every
     pid/tid is a recorded domain/lane. *)
  let json =
    match Json.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let events =
    match Option.bind (Json.member "traceEvents" json) Json.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let field name ev = Option.bind (Json.member name ev) Json.to_string_opt in
  let num name ev = Option.bind (Json.member name ev) Json.to_num_opt in
  let begins = ref 0 and ends = ref 0 in
  let names = ref [] in
  List.iter
    (fun ev ->
      (match field "ph" ev with
      | Some "B" -> incr begins
      | Some "E" -> incr ends
      | Some "M" ->
          if field "name" ev = Some "process_name" then
            names := Option.get (num "pid" ev) :: !names
      | _ -> ());
      if field "ph" ev <> Some "M" && num "pid" ev = None then
        Alcotest.fail "event without pid")
    events;
  Alcotest.(check int) "spans pair" !begins !ends;
  Alcotest.(check bool) "at least one span" true (!begins > 0);
  List.iter
    (fun ev ->
      match (field "ph" ev, num "pid" ev) with
      | (Some "B" | Some "E" | Some "i"), Some pid ->
          if not (List.mem pid !names) then
            Alcotest.failf "pid %.0f not named by metadata" pid
      | _ -> ())
    events

let test_ring_truncation_accounted () =
  Recorder.set_ring_capacity 64;
  Fun.protect
    ~finally:(fun () -> Recorder.set_ring_capacity 65536)
    (fun () ->
      let s = sim_trace ~seed:5 in
      (* Orphaned span edges are dropped by the exporter pre-pass, so a
         ring-truncated trace still checks. *)
      (match Lf_obs.Chrome_trace.check s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "truncated trace rejected: %s" e);
      ())

let test_recorder_drop_accounting () =
  Recorder.set_ring_capacity 32;
  Fun.protect
    ~finally:(fun () -> Recorder.set_ring_capacity 65536)
    (fun () ->
      with_recorder ~level:Recorder.Tracing ~clock:Recorder.Sim_steps
        (fun () ->
          let t = FRS.create () in
          let module D = Lf_workload.Dict.Of (FRS) in
          let ops = D.make t in
          ignore
            (Lf_workload.Sim_driver.run_mixed ~procs:2 ~ops_per_proc:40
               ~key_range:16
               ~mix:{ insert_pct = 40; delete_pct = 40 }
               ~seed:2 ops);
          Alcotest.(check int) "ring full" 32 (Recorder.event_count ());
          Alcotest.(check bool) "drops counted" true (Recorder.dropped () > 0)))

(* --- Prometheus snapshot --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_prometheus_grammar () =
  with_recorder ~level:Recorder.Histograms ~clock:Recorder.Real (fun () ->
      Recorder.span_begin ~op:Obs_event.Insert ~key:1;
      Recorder.on_cas Ev.Insertion true;
      Recorder.span_end ~op:Obs_event.Insert ~ok:true;
      let s = Lf_obs.Prom.snapshot () in
      (match Lf_obs.Prom.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot rejected: %s" e);
      Alcotest.(check bool) "mentions ops metric" true
        (contains s "lf_ops_total{op=\"insert\"} 1"))

(* --- GC attribution (EXP-22) --- *)

let test_gc_attr_monotone () =
  let a = Lf_obs.Gc_attr.totals () in
  (* Boxed elements: each [Some i] is a small minor-heap block (the array
     itself, >256 words, goes straight to the major heap and would be
     invisible to [minor_words]). *)
  let junk = Array.init 4096 (fun i -> Some i) in
  ignore (Sys.opaque_identity junk);
  let b = Lf_obs.Gc_attr.totals () in
  Alcotest.(check bool)
    "minor words grew by at least the array" true
    (b.minor_words -. a.minor_words >= 4096.);
  Alcotest.(check bool)
    "counters monotone" true
    (b.minor_collections >= a.minor_collections
    && b.major_collections >= a.major_collections
    && b.promoted_words >= a.promoted_words)

let test_prometheus_gc_counters () =
  with_recorder ~level:Recorder.Counters ~clock:Recorder.Real (fun () ->
      let s = Lf_obs.Prom.snapshot () in
      (match Lf_obs.Prom.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot rejected: %s" e);
      List.iter
        (fun metric ->
          Alcotest.(check bool) metric true (contains s ("\n" ^ metric ^ " ")))
        [
          "lf_gc_minor_collections_total";
          "lf_gc_major_collections_total";
          "lf_gc_minor_words_total";
          "lf_gc_promoted_words_total";
        ])

let test_prometheus_validator_rejects () =
  List.iter
    (fun bad ->
      match Lf_obs.Prom.validate bad with
      | Ok () -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "2metric 1.0\n";
      "metric{unterminated 1.0\n";
      "metric notanumber\n";
      "metric{l=\"v\"} 1.0 trailing junk here\n";
    ]

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "bad capacity" `Quick test_ring_bad_capacity;
        ] );
      ( "hist",
        [
          Alcotest.test_case "buckets" `Quick test_hist_buckets;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "tail resolution" `Quick test_hist_tail_resolution;
          Alcotest.test_case "empty raises" `Quick test_hist_empty_raises;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "profile",
        [ Alcotest.test_case "report ranking" `Quick test_profile_report ] );
      ( "clock",
        [
          Alcotest.test_case "real clock resolves back-to-back reads" `Quick
            test_real_clock_resolution;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "off records nothing" `Quick
            test_off_records_nothing;
          Alcotest.test_case "off path allocation-free" `Quick
            test_off_fast_path_no_alloc;
          Alcotest.test_case "counters level" `Quick test_counters_level;
          Alcotest.test_case "histograms level spans" `Quick
            test_histogram_level_spans;
          Alcotest.test_case "histograms span pair allocates nothing" `Quick
            test_histogram_span_no_alloc;
          Alcotest.test_case "drop accounting" `Quick
            test_recorder_drop_accounting;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "sim trace deterministic" `Quick
            test_sim_trace_deterministic;
          Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace_well_formed;
          Alcotest.test_case "escaped strings round-trip" `Quick
            test_escape_roundtrip;
          Alcotest.test_case "truncated trace still checks" `Quick
            test_ring_truncation_accounted;
          Alcotest.test_case "prometheus grammar" `Quick
            test_prometheus_grammar;
          Alcotest.test_case "prometheus validator rejects" `Quick
            test_prometheus_validator_rejects;
        ] );
      ( "gc attribution",
        [
          Alcotest.test_case "totals monotone" `Quick test_gc_attr_monotone;
          Alcotest.test_case "prometheus gc counters" `Quick
            test_prometheus_gc_counters;
        ] );
    ]
