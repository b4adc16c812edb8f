(* EXP-24: end-to-end request tracing — overhead pricing, tail-spike
   attribution, and the anomaly-triggered flight recorder (DESIGN.md
   §14).

   The claims under test:

   Part A (overhead): request trees follow the recorder's level, the
   one observability switch, and build only at Tracing.  Off must be
   free — the call sites stay in place, every operation pays a couple
   of flag loads, and the span path allocates nothing (measured twice:
   words/op over a real Svc workload, and a strict span-only microcheck
   whose budget is 64 minor words over 10k iterations).  Tracing pays
   the full price.  The table prices both against the same workload so
   the cost of turning tracing on is a number, not a guess.

   Part B (tail-spike attribution): the point of exemplars is that a
   latency outlier in the histogram leads somewhere.  Under a manual
   clock, a scripted run injects one seeded spike — once as a slow
   backend call, once as a slow retry wait — and the harness walks the
   evidence chain the operator would: worst exemplar bucket -> trace id
   -> completed span tree -> dominant phase (self-time argmax).  PASS:
   the dominant phase names the injected cause ("attempt" for the slow
   backend, "retry-wait" for the slow backoff), and because every input
   is seeded, running the script twice yields byte-identical flight
   dumps — the replay property the sim seam promises.

   Part C (flight recorder on anomaly): a sharded router with tracing
   on; shard 1's writes are killed, its breaker opens, and the dump
   that fires must land on disk as a JSON bundle naming the victim plus
   a Chrome-trace file that loads (checked structurally).  PASS: both
   files exist, the bundle carries the reason and the victim shard id,
   and the trace validates. *)

module Span = Lf_obs.Span
module Flight = Lf_obs.Flight
module Recorder = Lf_obs.Recorder
module Svc = Lf_svc.Svc
module Clock = Lf_svc.Clock
module Retry = Lf_svc.Retry
module Breaker = Lf_svc.Breaker
module Hash_ring = Lf_shard.Hash_ring
module Router = Lf_shard.Router
module Health = Lf_shard.Health
module AI = Lf_list.Fr_list.Atomic_int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || at (i + 1))
  in
  at 0

(* ------------------------------------------------------------------ *)
(* Part A: what does each level cost?                                   *)

let a_key_range = 1024
let a_ops () = if !Bench_json.quick then 20_000 else 200_000

(* The same call sites at every level: the level gates the cost, not
   the code path — exactly how lib/svc and bin/lfdict hold them. *)
let run_level ~clock level =
  Recorder.reset ();
  Recorder.set_level level;
  let t = AI.create () in
  for k = 0 to a_key_range - 1 do
    if k land 1 = 0 then ignore (AI.insert t k k)
  done;
  let ops =
    {
      Svc.insert = (fun k v -> AI.insert t k v);
      delete = AI.delete t;
      find = (fun k -> Option.is_some (AI.find t k));
    }
  in
  let svc = Svc.create (Svc.config ~clock ()) ops in
  let n = a_ops () in
  let traced = level = Recorder.Tracing in
  let now () = if traced then Clock.now clock else 0 in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now clock in
  for i = 0 to n - 1 do
    let k = i * 7919 land (a_key_range - 1) in
    let req =
      match i mod 4 with
      | 0 -> Svc.Insert (k, i)
      | 1 -> Svc.Delete k
      | _ -> Svc.Find k
    in
    let ctx = Span.root ~name:"request" ~now:(now ()) in
    let out = Svc.call svc ~ctx req in
    Span.end_ ctx ~now:(now ())
      ~ok:(match out with Svc.Served _ -> true | _ -> false)
  done;
  let secs = float_of_int (Clock.now clock - t0) /. 1e9 in
  let words = Gc.minor_words () -. w0 in
  Recorder.set_level Recorder.Off;
  (float_of_int n /. secs, words /. float_of_int n)

(* The strict form of the Off claim: the span calls themselves, with
   the Svc pipeline (which allocates outcomes by design) out of the
   frame. *)
let off_zero_alloc () =
  Recorder.set_level Recorder.Off;
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    let r = Span.root ~name:"request" ~now:i in
    let c = Span.begin_ r ~name:"child" ~now:i in
    if Span.active c then Span.event c ~now:i (Span.Note "x");
    Span.end_ c ~now:i ~ok:true;
    Span.end_ r ~now:i ~ok:true
  done;
  Gc.minor_words () -. w0

let part_a ~clock =
  Tables.subsection "Part A: per-request cost of tracing, off vs on";
  Tables.row [ 10; 12; 12; 10 ] [ "level"; "ops/s"; "words/op"; "vs off" ];
  let measured =
    List.map
      (fun lvl ->
        let rate, wpo = run_level ~clock lvl in
        (lvl, rate, wpo))
      [ Recorder.Off; Recorder.Tracing ]
  in
  let off_rate =
    match measured with (_, r, _) :: _ -> r | [] -> assert false
  in
  List.iter
    (fun (lvl, rate, wpo) ->
      Tables.row [ 10; 12; 12; 10 ]
        [
          Recorder.level_to_string lvl;
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.2f" wpo;
          Printf.sprintf "%.2fx" (off_rate /. rate);
        ];
      Bench_json.emit_part ~exp:"exp24" ~part:"overhead"
        Bench_json.[
          ("level", S (Recorder.level_to_string lvl));
          ("ops", I (a_ops ()));
          ("ops_per_s", F rate);
          ("minor_words_per_op", F wpo);
          ("slowdown_vs_off", F (off_rate /. rate));
        ])
    measured;
  let zw = off_zero_alloc () in
  Tables.note "off-level span-path microcheck: %.0f minor words / 10k iters" zw;
  Bench_json.emit_part ~exp:"exp24" ~part:"overhead"
    Bench_json.[
      ("level", S "off-microcheck");
      ("minor_words_per_10k", F zw);
      ("zero_alloc", S (string_of_bool (zw <= 64.)));
    ];
  let failures = ref [] in
  if zw > 64. then
    failures :=
      Printf.sprintf "overhead: Off span path allocated %.0f words / 10k ops" zw
      :: !failures;
  !failures

(* ------------------------------------------------------------------ *)
(* Part B: one seeded spike; the exemplar chain must name its cause.    *)

type spike = Slow_backend | Slow_retry

let spike_name = function
  | Slow_backend -> "slow-backend"
  | Slow_retry -> "slow-retry"

let expected_phase = function
  | Slow_backend -> "attempt"
  | Slow_retry -> "retry-wait"

let b_requests = 64
let b_spike_at = 40

(* The whole run is a function of the script: manual clock, seeded
   jitter, fixed spike index.  Returns the evidence the operator would
   pull plus the serialized dumps for the replay check. *)
let run_spike mode =
  Recorder.reset ();
  Recorder.set_level Recorder.Tracing;
  let clock, advance = Clock.manual () in
  let i_req = ref 0 in
  let find _ =
    let spiking = !i_req = b_spike_at in
    (match mode with
    | Slow_backend -> advance (if spiking then 800 else 2)
    | Slow_retry ->
        advance 2;
        if spiking then failwith "transient");
    true
  in
  let ops = { Svc.insert = (fun _ _ -> true); delete = (fun _ -> true); find } in
  let cfg =
    Svc.config ~clock ~seed:11
      ~retry:(Some (Retry.policy ~max_attempts:2 ~base_delay:4 ()))
      ~retryable:(fun _ -> true)
      ~backoff:(fun d -> advance (d + 600))
      ()
  in
  let svc = Svc.create cfg ops in
  for i = 0 to b_requests - 1 do
    i_req := i;
    let ctx = Span.root ~name:"request" ~now:(Clock.now clock) in
    let out = Svc.call svc ~ctx (Svc.Find i) in
    Span.end_ ctx ~now:(Clock.now clock)
      ~ok:(match out with Svc.Served _ -> true | _ -> false);
    (* clear the spike flag for the retry attempt of the next request *)
    i_req := -1;
    advance 1
  done;
  (* The operator's walk: worst bucket -> exemplar -> span tree. *)
  let worst =
    List.fold_left
      (fun acc e -> match acc with Some w when w.Recorder.ex_le >= e.Recorder.ex_le -> acc | _ -> Some e)
      None (Recorder.exemplars ())
  in
  let verdict =
    match worst with
    | None -> Error "no exemplars recorded"
    | Some e -> (
        match Span.find_trace e.Recorder.ex_trace with
        | None -> Error "exemplar trace id resolves to no retained tree"
        | Some tr -> (
            match Span.well_formed tr with
            | Error err -> Error ("tree ill-formed: " ^ err)
            | Ok () -> Ok (e, Span.dominant_phase tr)))
  in
  let dump =
    Flight.dump_string ~reason:"tail-spike"
      ~meta:[ ("mode", spike_name mode) ]
      ()
  in
  let chrome = Flight.chrome_string () in
  Recorder.set_level Recorder.Off;
  (verdict, dump, chrome)

let part_b () =
  Tables.subsection
    "Part B: tail-spike attribution via exemplar -> span tree";
  Tables.row [ 14; 10; 14; 14; 9 ]
    [ "spike"; "worst le"; "dominant"; "expected"; "replay" ];
  let failures = ref [] in
  List.iter
    (fun mode ->
      let v1, d1, c1 = run_spike mode in
      let _, d2, c2 = run_spike mode in
      let replay_ok = String.equal d1 d2 && String.equal c1 c2 in
      let chrome_ok =
        match Lf_obs.Chrome_trace.check c1 with Ok () -> true | Error _ -> false
      in
      let le, phase, attributed =
        match v1 with
        | Ok (e, phase) ->
            (string_of_int e.Recorder.ex_le, phase,
             String.equal phase (expected_phase mode))
        | Error err -> ("-", "ERROR: " ^ err, false)
      in
      Tables.row [ 14; 10; 14; 14; 9 ]
        [
          spike_name mode;
          le;
          phase;
          expected_phase mode;
          (if replay_ok then "byte-eq" else "DIFFERS");
        ];
      Bench_json.emit_part ~exp:"exp24" ~part:"tail-spike"
        Bench_json.[
          ("mode", S (spike_name mode));
          ("requests", I b_requests);
          ("worst_le", S le);
          ("dominant_phase", S phase);
          ("expected_phase", S (expected_phase mode));
          ("attributed", S (string_of_bool attributed));
          ("replay_identical", S (string_of_bool replay_ok));
          ("chrome_valid", S (string_of_bool chrome_ok));
        ];
      (* Deterministic, so these hold in quick mode too. *)
      let need cond msg =
        if not cond then
          failures := Printf.sprintf "tail-spike %s: %s" (spike_name mode) msg :: !failures
      in
      need attributed
        (Printf.sprintf "dominant phase %S, expected %S" phase
           (expected_phase mode));
      need replay_ok "two seeded executions did not dump byte-identically";
      need chrome_ok "chrome trace failed structural validation")
    [ Slow_backend; Slow_retry ];
  !failures

(* ------------------------------------------------------------------ *)
(* Part C: anomaly dump — a killed shard must leave evidence on disk.   *)

let c_shards = 3
let c_victim = 1
let c_dir = Filename.concat "bench/results" "exp24-flight"

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let part_c () =
  Tables.subsection "Part C: flight dump when a shard's breaker opens";
  Recorder.reset ();
  Recorder.set_level Recorder.Tracing;
  let clock, advance = Clock.manual () in
  let ring = Hash_ring.create ~seed:3 ~shards:c_shards () in
  let killed = Array.make c_shards false in
  let backend i =
    let h = Hashtbl.create 64 in
    {
      Router.insert =
        (fun k v ->
          if killed.(i) then failwith "shard down";
          if Hashtbl.mem h k then false
          else begin
            Hashtbl.replace h k v;
            true
          end);
      delete =
        (fun k ->
          if killed.(i) then failwith "shard down";
          if Hashtbl.mem h k then begin
            Hashtbl.remove h k;
            true
          end
          else false);
      find = (fun k -> Hashtbl.find_opt h k);
      batched = None;
    }
  in
  let svc_config _ =
    Svc.config ~clock
      ~retryable:(fun _ -> false)
      ~breaker:
        (Some
           (Breaker.config ~window:1_000_000 ~min_calls:2 ~failure_pct:50
              ~open_for:1_000_000 ~probes:1 ()))
      ~read_only_when_open:false
      ()
  in
  let router =
    Router.create ~hedge_reads:false ~ring ~svc_config backend
  in
  killed.(c_victim) <- true;
  (* Traced writes against the victim until its breaker opens — the
     anomaly poll (as in lfdict serve) is [Health.open_breakers]. *)
  let k = ref 0 and budget = ref 200 in
  while Health.open_breakers router = [] && !budget > 0 do
    if Hash_ring.shard_of ring !k = c_victim then begin
      let ctx = Span.root ~name:"request" ~now:(Clock.now clock) in
      let out = Router.call router ~ctx (Svc.Insert (!k, !k)) in
      Span.end_ ctx ~now:(Clock.now clock)
        ~ok:(match out with Svc.Served _ -> true | _ -> false);
      advance 1;
      decr budget
    end;
    incr k
  done;
  let open_shards = Health.open_breakers router in
  let json_path, trace_path =
    match
      Flight.dump ~dir:c_dir ~reason:"shard-kill"
        ~meta:[ ("shard", string_of_int c_victim) ]
        ()
    with
    | Ok paths -> paths
    | Error msg -> failwith ("exp24: flight dump failed: " ^ msg)
  in
  Recorder.set_level Recorder.Off;
  let bundle = read_file json_path in
  let chrome_ok =
    match Lf_obs.Chrome_trace.check (read_file trace_path) with
    | Ok () -> true
    | Error _ -> false
  in
  let names_victim =
    contains bundle "\"reason\":\"shard-kill\""
    && contains bundle (Printf.sprintf "\"shard\":\"%d\"" c_victim)
  in
  Tables.note "victim breaker open on shards %s; dumped %s + %s"
    (String.concat "," (List.map string_of_int open_shards))
    json_path trace_path;
  Bench_json.emit_part ~exp:"exp24" ~part:"flight"
    Bench_json.[
      ("victim", I c_victim);
      ("breaker_open", S (string_of_bool (open_shards = [ c_victim ])));
      ("bundle", S json_path);
      ("trace", S trace_path);
      ("names_victim", S (string_of_bool names_victim));
      ("chrome_valid", S (string_of_bool chrome_ok));
    ];
  let failures = ref [] in
  let need cond msg =
    if not cond then failures := ("flight: " ^ msg) :: !failures
  in
  need (open_shards = [ c_victim ])
    (Printf.sprintf "expected breaker open on shard %d only, got [%s]" c_victim
       (String.concat ";" (List.map string_of_int open_shards)));
  need (names_victim) "dump bundle does not name the reason and victim shard";
  need chrome_ok "dumped chrome trace failed structural validation";
  !failures

let run () =
  Tables.section
    "EXP-24  Request tracing: overhead, tail attribution, flight recorder";
  let clock = Clock.real () in
  let fa = part_a ~clock in
  let fb = part_b () in
  let fc = part_c () in
  let failures = fa @ fb @ fc in
  (match failures with
  | [] ->
      Tables.note
        "PASS: Off costs nothing, the worst exemplar's span tree names the";
      Tables.note
        "injected cause, replays dump byte-identically, and a killed shard";
      Tables.note "leaves a flight bundle on disk."
  | fs ->
      List.iter (fun f -> Tables.note "FAIL: %s" f) fs;
      Tables.note "acceptance criteria NOT met (see rows above)");
  failures = []
