(* perfbench: the repository's end-to-end benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Workloads:
     serve-point          single-key PUT/DEL/GET over the socket
     serve-batch          16-key MGET/MSET lines and DEL groups over the socket
     lib-list-contended   two domains on Fr_list directly

   With --trace 0 it prints the end-to-end metrics; with --trace 1 the
   per-layer metrics (the ladder, see ladder.ml).  Every line but the last
   is a human-readable table; the last is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  A wrong reply, a
   counter that does not reconcile, or a broken invariant prints
   "correct": false with no metrics and exits 1.  Run it from the root of
   a built checkout: perfbench/run.sh builds and runs it. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0

(* Where run.sh's dune build puts the server, and where traced runs write
   their span traces, relative to the checkout root. *)
let server = "_build/default/bin/lfdict.exe"
let out_dir = "perfbench/out"

let spec_list =
  [
    ("--workload", Arg.Set_string workload, "NAME serve-point | serve-batch | lib-list-contended");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measured window, seconds");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
  ]

(* ---- Output ---- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let json_number v =
  if not (Float.is_finite v) then failwith (Printf.sprintf "non-finite metric %g" v);
  Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %18.6f %-16s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let incorrect ~attempted ~failed why =
  Printf.eprintf "perfbench: incorrect run: %s\n%!" why;
  Printf.printf
    "{\"correct\": false, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n%!"
    (max 1 attempted) failed;
  exit 1

let per a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* End-to-end metrics; the same names on every workload. *)
let e2e ~ops_per_s ~lat ~tail ~words_per_op ~served_share ~setup_s ~rss_mb =
  let pct s p =
    match Samples.percentiles s [ p ] with [ v ] -> v | _ -> assert false
  in
  let p50 = pct lat 0.5 and p99 = pct tail 0.99 in
  let n = Samples.count lat in
  [
    metric "ops_per_s" "ops/s" ops_per_s;
    metric "lat_p50_us" "us" (p50 /. 1e3) ~note:(Printf.sprintf "n=%d" n);
    metric "lat_p99_us" "us" (p99 /. 1e3) ~note:(Printf.sprintf "n=%d" n);
    metric "minor_words_per_op" "words/op" words_per_op;
    metric "served_share" "ratio" served_share;
    metric "setup_s" "s" (Calib.median setup_s)
      ~note:(Printf.sprintf "median of %d" (List.length setup_s));
    metric "peak_rss_mb" "MiB" rss_mb;
  ]

(* Every per-layer metric, in a fixed order; a layer that a workload does
   not exercise reads 0 (see the README's layer table). *)
let layer_names =
  [
    ("fr_skiplist.ns_per_op", "ns/op");
    ("fr_skiplist.minor_words_per_op", "words/op");
    ("fr_skiplist.cas_per_op", "cas/op");
    ("fr_skiplist.cas_fail_per_op", "cas/op");
    ("fr_skiplist.backlink_steps_per_op", "steps/op");
    ("fr_skiplist.hint_hit_share", "ratio");
    ("fr_list.ns_per_op", "ns/op");
    ("fr_list.minor_words_per_op", "words/op");
    ("fr_list.cas_per_op", "cas/op");
    ("fr_list.cas_fail_per_op", "cas/op");
    ("fr_list.backlink_steps_per_op", "steps/op");
    ("fr_list.hint_hit_share", "ratio");
    ("recorder.ns_per_op", "ns/op");
    ("recorder.minor_words_per_op", "words/op");
    ("svc.base_ns_per_call", "ns/call");
    ("svc.policy_ns_per_call", "ns/call");
    ("svc.base_minor_words_per_call", "words/call");
    ("svc.policy_minor_words_per_call", "words/call");
    ("svc.rejected_share", "ratio");
    ("svc.retries_per_call", "retries/call");
    ("router.ns_per_call", "ns/call");
    ("router.fanout_ns_per_call", "ns/call");
    ("router.minor_words_per_call", "words/call");
    ("router.shards_per_multi", "shards");
    ("router.hedged_share", "ratio");
    ("wire.parse_ns_per_line", "ns/line");
    ("wire.format_ns_per_line", "ns/line");
    ("wire.minor_words_per_line", "words/line");
    ("serve.ns_per_line", "ns/line");
    ("serve.minor_words_per_line", "words/line");
    ("gc.minor_collections_per_kop", "1/kop");
    ("gc.promoted_words_per_op", "words/op");
    ("trace.overhead_ratio", "ratio");
  ]

let layers measured =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name measured with
      | Some v -> metric name unit_ v
      | None -> metric name unit_ 0. ~note:"n/a on this workload")
    layer_names

(* ---- Socket workloads ---- *)

let check_socket (r : Client.run) =
  if r.wrong > 0 then
    incorrect ~attempted:r.ops ~failed:r.failed
      (Printf.sprintf "%d replies contradict the sequential model" r.wrong);
  match r.reconcile with
  | Ok () -> ()
  | Error e -> incorrect ~attempted:r.ops ~failed:r.failed ("counters: " ^ e)

let socket_e2e spec =
  (* Set-up is spawn-to-HEALTH plus prefill; the batch prefill is 131k
     keys and takes seconds, so it is repeated fewer times. *)
  let servers = if spec == Gen.serve_batch then 2 else 5 in
  let r = Client.run ~exe:server ~servers ~seconds:!seconds spec ~seed:!seed in
  check_socket r;
  Printf.printf
    "%s seed=%d: %d steps, %d lines, %d ops in %.3f s; raw %.1f ops/s at box \
     speed %.3f\n"
    spec.Gen.name !seed r.steps r.lines r.ops
    (fi r.raw_window_ns /. 1e9)
    (per (fi r.served) (fi r.raw_window_ns /. 1e9))
    r.speed;
  print_result ~correct:true ~attempted:r.ops ~failed:r.failed
    (e2e
       ~ops_per_s:(per (fi r.served) (r.window_ns /. 1e9))
       ~lat:r.lat ~tail:r.tail
       ~words_per_op:(per r.words (fi r.ops))
       ~served_share:(per (fi r.served) (fi r.ops))
       ~setup_s:r.setup_s ~rss_mb:r.rss_mb)

let socket_trace spec =
  let r =
    Client.run ~exe:server ~servers:1 ~seconds:(!seconds /. 2.) spec ~seed:!seed
  in
  check_socket r;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace_file =
    Filename.concat out_dir (Printf.sprintf "%s-%d.trace.json" spec.name !seed)
  in
  let l = Ladder.run spec ~seed:!seed ~steps:r.steps ~count_steps:20_000 ~trace_file in
  let lines = fi l.lines and ops = fi l.ops in
  let rung i = snd l.costs.(i - 1) in
  let d_ns i j = (rung i).ns -. (rung j).ns
  and d_w i j = (rung i).words -. (rung j).words in
  let socket_ns_per_line = per r.cpu_window_ns (fi r.lines)
  and server_words_per_line = per r.words (fi r.lines) in
  Printf.printf "%s seed=%d: ladder over %d lines (%d ops)\n" spec.name !seed l.lines
    l.ops;
  Printf.printf "  %-3s %-12s %14s %14s %14s %14s\n" "" "rung" "ns/line" "words/line"
    "+ns/line" "+words/line";
  let prev = ref (0., 0.) in
  Array.iteri
    (fun i (name, (c : Ladder.cost)) ->
      let ns = c.ns /. lines and w = c.words /. lines in
      Printf.printf "  %-3d %-12s %14.1f %14.1f %14.1f %14.1f\n" (i + 1) name ns w
        (ns -. fst !prev) (w -. snd !prev);
      prev := (ns, w))
    l.costs;
  Printf.printf "  %-3d %-12s %14.1f %14.1f %14.1f %14.1f\n" 8 "socket"
    socket_ns_per_line server_words_per_line
    (socket_ns_per_line -. fst !prev)
    (server_words_per_line -. snd !prev);
  Printf.printf "  span trace: %s (%d events, Chrome_trace.check ok)\n" trace_file
    l.spans;
  let c = l.structure in
  let cops = fi c.c_ops in
  let measured =
    [
      ("fr_skiplist.ns_per_op", (rung 1).ns /. ops);
      ("fr_skiplist.minor_words_per_op", (rung 1).words /. ops);
      ("fr_skiplist.cas_per_op", per (fi c.cas) cops);
      ("fr_skiplist.cas_fail_per_op", per (fi c.cas_fail) cops);
      ("fr_skiplist.backlink_steps_per_op", per (fi c.backlinks) cops);
      ("fr_skiplist.hint_hit_share", per (fi c.hint_hits) (fi c.hint_lookups));
      ("recorder.ns_per_op", d_ns 2 1 /. ops);
      ("recorder.minor_words_per_op", d_w 2 1 /. ops);
      ("svc.base_ns_per_call", d_ns 3 2 /. ops);
      ("svc.policy_ns_per_call", d_ns 4 3 /. ops);
      ("svc.base_minor_words_per_call", d_w 3 2 /. ops);
      ("svc.policy_minor_words_per_call", d_w 4 3 /. ops);
      ("svc.rejected_share", per (fi l.router.rejected) (fi l.router.calls));
      ("svc.retries_per_call", per (fi l.router.retries) (fi l.router.calls));
      ("router.ns_per_call", d_ns 5 4 /. lines);
      ("router.fanout_ns_per_call", d_ns 6 5 /. lines);
      ("router.minor_words_per_call", d_w 6 4 /. lines);
      ("router.shards_per_multi", l.shards_per_multi);
      ("router.hedged_share", per (fi l.router.hedged) (fi l.router.calls));
      ("wire.parse_ns_per_line", l.parse_ns /. lines);
      ("wire.format_ns_per_line", l.format_ns /. lines);
      ("wire.minor_words_per_line", d_w 7 6 /. lines);
      ("serve.ns_per_line", socket_ns_per_line -. ((rung 7).ns /. lines));
      ("serve.minor_words_per_line", server_words_per_line -. ((rung 7).words /. lines));
      ("gc.minor_collections_per_kop", per (r.minor_collections *. 1e3) (fi r.ops));
      ("gc.promoted_words_per_op", per r.promoted_words (fi r.ops));
      ("trace.overhead_ratio", l.spans_on.ns /. (rung 7).ns);
    ]
  in
  print_result ~correct:true ~attempted:r.ops ~failed:r.failed (layers measured)

(* ---- lib-list-contended ---- *)

let check_conserved (r : Contended.run) =
  match r.conserved with
  | Ok () -> ()
  | Error e -> incorrect ~attempted:(Contended.ops r) ~failed:0 ("conservation: " ^ e)

let lib_e2e () =
  let setup_s = Contended.Timed.setup_times ~seed:!seed 201 in
  let r = Contended.Timed.run ~seed:!seed ~seconds:!seconds ~timed:true () in
  check_conserved r;
  let ops = Contended.ops r in
  Printf.printf "lib-list-contended seed=%d: %d ops on %d domains in %.3f s\n" !seed
    ops Contended.domains (fi r.window_ns /. 1e9);
  let lat = Contended.latency r in
  print_result ~correct:true ~attempted:ops ~failed:0
    (e2e
       ~ops_per_s:(Contended.ops_per_s r)
       ~lat ~tail:lat
       ~words_per_op:(per (Contended.words r) (fi ops))
       ~served_share:1. ~setup_s
       ~rss_mb:(Client.vm_hwm_mb "self"))

let lib_trace () =
  let r = Contended.Timed.run ~seed:!seed ~seconds:(!seconds /. 2.) ~timed:false () in
  check_conserved r;
  let cr, c = Contended.count_pass ~seed:!seed ~limit:500_000 in
  check_conserved cr;
  let ops = fi (Contended.ops r) and cops = fi (Contended.ops cr) in
  let cas = Lf_kernel.Counters.total_cas_attempts c in
  let measured =
    [
      ("fr_list.ns_per_op", Contended.ns_per_op r);
      ("fr_list.minor_words_per_op", Contended.words r /. ops);
      ("fr_list.cas_per_op", fi cas /. cops);
      ( "fr_list.cas_fail_per_op",
        fi (cas - Lf_kernel.Counters.total_cas_successes c) /. cops );
      ("fr_list.backlink_steps_per_op", fi c.backlink_steps /. cops);
      ("fr_list.hint_hit_share", per (fi r.hint_hits) (fi r.hint_lookups));
      ("gc.minor_collections_per_kop", fi r.minor_collections *. 1e3 /. ops);
      ("gc.promoted_words_per_op", r.promoted_words /. ops);
    ]
  in
  Printf.printf
    "lib-list-contended seed=%d: %.0f ops timed, %.0f ops counted, on %d domains\n"
    !seed ops cops Contended.domains;
  print_result ~correct:true ~attempted:(Contended.ops r) ~failed:0 (layers measured)

let () =
  Arg.parse spec_list
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds <= 0. then (prerr_endline "perfbench: --seconds must be positive"; exit 2);
  let traced =
    match !trace with
    | 0 -> false
    | 1 -> true
    | _ -> prerr_endline "perfbench: --trace is 0 or 1"; exit 2
  in
  let socket spec =
    if not (Sys.file_exists server) then begin
      Printf.eprintf "perfbench: no server binary at %s\n" server;
      exit 2
    end;
    if traced then socket_trace spec else socket_e2e spec
  in
  match !workload with
  | "serve-point" -> socket Gen.serve_point
  | "serve-batch" -> socket Gen.serve_batch
  | "lib-list-contended" -> if traced then lib_trace () else lib_e2e ()
  | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
