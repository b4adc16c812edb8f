(* End-to-end request tracing (lib/obs Span/Slo/Flight, DESIGN.md §14):
   span-tree well-formedness over scripted nestings, id uniqueness
   across domains, byte-identical dumps across two deterministic
   executions (the replay half of EXP-24), flight dumps into missing and
   unusable directories, exemplar and SLO burn math, Chrome-trace output
   validity, the Off level's zero-allocation contract, the one store
   ([Recorder.reset] clears every trace; a tree spans domains), pipeline
   decision spans through Svc, C&S-failure attribution through the
   [Trace_mem] seam (per lane, simulated lanes sharing a domain
   included), hedge/drain tracing through the Router, trees that follow
   the recorder's level, and the journal's seq/tick stamping. *)

module Span = Lf_obs.Span
module Recorder = Lf_obs.Recorder
module Slo = Lf_obs.Slo
module Flight = Lf_obs.Flight
module Svc = Lf_svc.Svc
module Clock = Lf_svc.Clock
module Retry = Lf_svc.Retry
module Breaker = Lf_svc.Breaker
module Hash_ring = Lf_shard.Hash_ring
module Router = Lf_shard.Router
module Health = Lf_shard.Health

let with_level level f =
  Recorder.reset ();
  Recorder.set_level level;
  Fun.protect ~finally:(fun () -> Recorder.set_level Recorder.Off) f

let with_spans f = with_level Recorder.Tracing f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || at (i + 1))
  in
  at 0

(* --- Tree discipline -------------------------------------------------- *)

(* Any stack-disciplined script of opens/closes/events yields a
   well-formed tree: unique ids, parents present, children nested inside
   their parents' intervals. *)
let test_nesting_well_formed =
  Support.qcheck ~count:150 "span: scripted nestings are well-formed"
    QCheck2.Gen.(list_size (int_bound 60) (int_bound 2))
    (fun script ->
      with_spans @@ fun () ->
      let t = ref 0 in
      let tick () =
        incr t;
        !t
      in
      let root = Span.root ~name:"request" ~now:(tick ()) in
      let stack = ref [ root ] in
      List.iter
        (fun op ->
          match (op, !stack) with
          | 0, top :: _ ->
              stack := Span.begin_ top ~name:"child" ~now:(tick ()) :: !stack
          | 1, top :: (_ :: _ as rest) ->
              Span.end_ top ~now:(tick ()) ~ok:true;
              stack := rest
          | _, top :: _ ->
              if Span.active top then
                Span.event top ~now:(tick ()) (Span.Note "n")
          | _, [] -> assert false)
        script;
      List.iter (fun c -> Span.end_ c ~now:(tick ()) ~ok:true) !stack;
      match Span.trees () with
      | [ tr ] ->
          Span.well_formed tr = Ok ()
          && Span.tree_trace tr = Span.trace_id root
          && (Span.tree_root tr).Span.s_name = "request"
      | _ -> false)

let test_ids_unique_across_domains () =
  with_spans @@ fun () ->
  let work () =
    for i = 1 to 50 do
      let r = Span.root ~name:"r" ~now:i in
      let a = Span.begin_ r ~name:"a" ~now:i in
      let b = Span.begin_ a ~name:"b" ~now:i in
      Span.end_ b ~now:(i + 1) ~ok:true;
      Span.end_ a ~now:(i + 1) ~ok:true;
      Span.end_ r ~now:(i + 2) ~ok:true
    done
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn work) in
  Array.iter Domain.join doms;
  let trees = Span.trees () in
  Alcotest.(check int) "all trees retained" 200 (List.length trees);
  let ids =
    List.concat_map
      (fun tr -> List.map (fun s -> s.Span.s_id) (Span.tree_spans tr))
      trees
  in
  Alcotest.(check int) "no id collisions" (List.length ids)
    (List.length (List.sort_uniq Int.compare ids))

(* A tree is a view over every domain's ring: a child opened and closed
   on a spawned domain joins the root its parent domain opened. *)
let test_tree_across_domains () =
  with_spans @@ fun () ->
  let root = Span.root ~name:"request" ~now:1 in
  let remote =
    Domain.spawn (fun () ->
        let c = Span.begin_ root ~name:"remote" ~now:2 in
        Span.event c ~now:3 (Span.Note "far");
        Span.end_ c ~now:4 ~ok:true;
        Span.trace_id c)
  in
  Alcotest.(check int) "the child joins the root's trace" (Span.trace_id root)
    (Domain.join remote);
  Span.end_ root ~now:5 ~ok:true;
  match Span.trees () with
  | [ tr ] -> (
      (match Span.well_formed tr with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check (list string)) "root, then the remote child"
        [ "request"; "remote" ]
        (List.map (fun s -> s.Span.s_name) (Span.tree_spans tr));
      match Span.tree_spans tr with
      | [ r; c ] ->
          Alcotest.(check bool) "ids from two domains" true
            (r.Span.s_id lsr 40 <> c.Span.s_id lsr 40);
          Alcotest.(check bool) "the remote event kept" true
            (Span.span_events c = [ (3, Span.Note "far") ])
      | _ -> assert false)
  | l -> Alcotest.failf "expected one tree, got %d" (List.length l)

(* One store, one reset: after a traced call, [Recorder.reset] alone
   leaves no tree and no exemplar behind. *)
let test_recorder_reset_clears_traces () =
  with_spans @@ fun () ->
  let clock, advance = Clock.manual () in
  let svc =
    Svc.create (Svc.config ~clock ())
      {
        Svc.insert = (fun _ _ -> true);
        delete = (fun _ -> true);
        find = (fun _ -> true);
      }
  in
  let ctx = Span.root ~name:"request" ~now:(Clock.now clock) in
  ignore (Svc.call svc ~ctx (Svc.Insert (1, 1)));
  advance 2;
  Span.end_ ctx ~now:(Clock.now clock) ~ok:true;
  Alcotest.(check int) "one tree before the reset" 1
    (List.length (Span.trees ()));
  Alcotest.(check int) "one exemplar before the reset" 1
    (List.length (Recorder.exemplars ()));
  Recorder.reset ();
  Alcotest.(check int) "no tree after the reset" 0
    (List.length (Span.trees ()));
  Alcotest.(check int) "no exemplar after the reset" 0
    (List.length (Recorder.exemplars ()));
  Alcotest.(check (pair int int)) "no latency after the reset" (0, 0)
    (Recorder.latency_totals ())

(* --- Deterministic replay: byte-identical dumps ----------------------- *)

(* One scripted run through a real Svc pipeline under a manual clock.
   Everything that feeds the dump — ids, ticks, retry jitter, budget
   refills — is a function of the seed and the script, so two
   executions must serialize identically, byte for byte. *)
let traced_run () =
  Recorder.reset ();
  Recorder.set_level Recorder.Tracing;
  let clock, advance = Clock.manual () in
  let fails = ref 2 in
  let ops =
    {
      Svc.insert =
        (fun _ _ ->
          advance 3;
          true);
      delete =
        (fun _ ->
          advance 1;
          true);
      find =
        (fun k ->
          advance 2;
          if !fails > 0 && k = 7 then begin
            decr fails;
            failwith "flaky read"
          end
          else true);
    }
  in
  let cfg =
    Svc.config ~clock ~seed:42
      ~retry:(Some (Retry.policy ~max_attempts:3 ~base_delay:2 ()))
      ()
  in
  let svc = Svc.create cfg ops in
  List.iter
    (fun req ->
      let ctx = Span.root ~name:"request" ~now:(Clock.now clock) in
      let out = Svc.call svc ~ctx req in
      let ok = match out with Svc.Served _ -> true | _ -> false in
      Span.end_ ctx ~now:(Clock.now clock) ~ok;
      advance 1)
    [
      Svc.Insert (1, 1); Svc.Find 7; Svc.Delete 1; Svc.Find 7; Svc.Insert (2, 2);
    ];
  let dump = Flight.dump_string ~reason:"replay" ~meta:[ ("run", "x") ] () in
  let chrome = Flight.chrome_string () in
  Recorder.set_level Recorder.Off;
  (dump, chrome)

let test_replay_byte_identical () =
  let d1, c1 = traced_run () in
  let d2, c2 = traced_run () in
  Alcotest.(check string) "dump bundles byte-identical" d1 d2;
  Alcotest.(check string) "chrome traces byte-identical" c1 c2;
  Alcotest.(check bool) "dump carries reason" true
    (contains d1 "\"reason\":\"replay\"");
  Alcotest.(check bool) "dump carries meta" true (contains d1 "\"run\":\"x\"");
  match Lf_obs.Chrome_trace.check c1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome trace invalid: %s" e

(* --- Flight dumps on disk ---------------------------------------------- *)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

(* A dump creates its directory with any missing parents; a directory
   that cannot exist (it sits under a regular file) is an [Error], not
   an exception, so a server can report it and keep serving. *)
let test_flight_dump_dirs () =
  with_spans @@ fun () ->
  let r = Span.root ~name:"request" ~now:1 in
  Span.end_ r ~now:2 ~ok:true;
  let base = Filename.temp_file "lf-flight" "" in
  Sys.remove base;
  Fun.protect ~finally:(fun () -> if Sys.file_exists base then rm_rf base)
  @@ fun () ->
  let dir = Filename.concat (Filename.concat base "a") "b" in
  (match Flight.dump ~dir ~reason:"nested" () with
  | Error e -> Alcotest.failf "dump into a missing nested dir failed: %s" e
  | Ok (bundle, chrome) ->
      Alcotest.(check string) "bundle lands in the nested dir" dir
        (Filename.dirname bundle);
      Alcotest.(check bool) "bundle written" true (Sys.file_exists bundle);
      Alcotest.(check bool) "chrome trace written" true (Sys.file_exists chrome));
  let file = Filename.concat base "plain" in
  close_out (open_out file);
  match Flight.dump ~dir:(Filename.concat file "sub") ~reason:"blocked" () with
  | Ok _ -> Alcotest.fail "dump under a regular file succeeded"
  | Error _ -> ()

(* --- Exemplars and the latency histogram ------------------------------ *)

let test_exemplars () =
  with_spans @@ fun () ->
  let mk lat =
    let r = Span.root ~name:"req" ~now:100 in
    Span.end_ r ~now:(100 + lat) ~ok:true;
    Span.trace_id r
  in
  let t0 = mk 0 in
  let t1 = mk 1 in
  let _t2 = mk 2 in
  let t3 = mk 3 in
  let t5 = mk 5 in
  let t100 = mk 100 in
  let exs = Recorder.exemplars () in
  Alcotest.(check (list int)) "non-empty buckets, ascending bounds"
    [ 0; 1; 3; 7; 127 ]
    (List.map (fun (e : Recorder.exemplar) -> e.ex_le) exs);
  let find le = List.find (fun (e : Recorder.exemplar) -> e.ex_le = le) exs in
  Alcotest.(check int) "le=3 counts latencies 2 and 3" 2 (find 3).ex_count;
  Alcotest.(check int) "le=3 exemplar is the worst (latency 3)" t3
    (find 3).ex_trace;
  Alcotest.(check int) "worst latency recorded" 3 (find 3).ex_latency;
  Alcotest.(check int) "completion tick recorded" 103 (find 3).ex_tick;
  List.iter
    (fun (le, tr) ->
      Alcotest.(check int)
        (Printf.sprintf "le=%d exemplar trace" le)
        tr
        (find le).ex_trace)
    [ (0, t0); (1, t1); (7, t5); (127, t100) ];
  let sum, count = Recorder.latency_totals () in
  Alcotest.(check int) "latency sum" 111 sum;
  Alcotest.(check int) "latency count" 6 count;
  (* A later, slower request in the same bucket replaces the exemplar. *)
  let t3b = mk 3 in
  Alcotest.(check int) "worst-recent replacement" t3b
    (let e =
       List.find
         (fun (e : Recorder.exemplar) -> e.ex_le = 3)
         (Recorder.exemplars ())
     in
     e.ex_trace);
  (* The Prometheus snapshot renders them as valid OpenMetrics. *)
  let snap = Lf_obs.Prom.snapshot () in
  Alcotest.(check bool) "snapshot has the latency histogram" true
    (contains snap "lf_latency_bucket");
  Alcotest.(check bool) "snapshot carries trace-id exemplars" true
    (contains snap "# {trace_id=\"");
  match Lf_obs.Prom.validate snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "snapshot with exemplars invalid: %s" e

let test_prom_exemplar_lines () =
  let ok l = Lf_obs.Prom.validate (l ^ "\n") in
  Alcotest.(check bool) "exemplar line accepted" true
    (ok "lf_latency_bucket{le=\"7\"} 3 # {trace_id=\"12\"} 5" = Ok ());
  Alcotest.(check bool) "exemplar with timestamp accepted" true
    (ok "lf_latency_bucket{le=\"7\"} 3 # {trace_id=\"12\"} 5 1700000000" = Ok ());
  Alcotest.(check bool) "junk after value still rejected" true
    (match ok "lf_latency_bucket{le=\"7\"} 3 # oops" with
    | Error _ -> true
    | Ok () -> false);
  Alcotest.(check bool) "unlabelled exemplar rejected" true
    (match ok "lf_latency_bucket{le=\"7\"} 3 # {trace_id=\"12\"}" with
    | Error _ -> true
    | Ok () -> false)

(* --- SLO burn rates --------------------------------------------------- *)

let test_slo_burn_math () =
  let slo = Slo.create ~target:0.9 ~bucket:10 ~windows:[ 100; 1000 ] () in
  for i = 0 to 9 do
    Slo.observe slo ~now:i ~good:1 ~bad:0
  done;
  Alcotest.(check (float 1e-9)) "all good, no burn" 0.0
    (Slo.burn_rate slo ~now:9 ~window:100);
  for i = 10 to 19 do
    Slo.observe slo ~now:i ~good:0 ~bad:1
  done;
  (* 10 good / 10 bad over the window: bad ratio 0.5 against a 0.1
     budget — burning five times faster than the budget accrues. *)
  Alcotest.(check (float 1e-9)) "half bad = 5x burn" 5.0
    (Slo.burn_rate slo ~now:19 ~window:100);
  Alcotest.(check bool) "5x is not fast burn" false (Slo.fast_burn slo ~now:19);
  for i = 100 to 199 do
    Slo.observe slo ~now:i ~good:0 ~bad:1
  done;
  Alcotest.(check (float 1e-9)) "all bad = 10x burn" 10.0
    (Slo.burn_rate slo ~now:199 ~window:100);
  Alcotest.(check bool) "10x trips fast burn" true (Slo.fast_burn slo ~now:199);
  let line = Slo.line slo ~now:199 in
  Alcotest.(check bool) "line carries target" true (contains line "target=0.9");
  Alcotest.(check bool) "line carries fast_burn" true
    (contains line "fast_burn=true");
  (* The window slides: with no fresh observations the burn decays to 0
     (the long window still remembers). *)
  Alcotest.(check (float 1e-9)) "stale window burns nothing" 0.0
    (Slo.burn_rate slo ~now:400 ~window:100);
  Alcotest.(check bool) "long window still burning" true
    (Slo.burn_rate slo ~now:400 ~window:1000 > 0.0);
  (* A line's outcomes arrive as one observation of counts: the same
     burn rates and line as one observation per outcome. *)
  let singles = Slo.create ~target:0.9 ~bucket:10 ~windows:[ 100; 1000 ] () in
  List.iter
    (fun good ->
      Slo.observe singles ~now:42 ~good:(Bool.to_int good)
        ~bad:(Bool.to_int (not good)))
    [ true; false; true; true ];
  let counts = Slo.create ~target:0.9 ~bucket:10 ~windows:[ 100; 1000 ] () in
  Slo.observe counts ~now:42 ~good:3 ~bad:1;
  List.iter
    (fun window ->
      Alcotest.(check (float 1e-9)) "counts burn like singles"
        (Slo.burn_rate singles ~now:50 ~window)
        (Slo.burn_rate counts ~now:50 ~window))
    [ 100; 1000 ];
  Alcotest.(check string) "counts line like singles" (Slo.line singles ~now:50)
    (Slo.line counts ~now:50);
  List.iter
    (fun mk -> Alcotest.check_raises "bad config" (Invalid_argument "Slo.create: target must be in (0, 1)") mk)
    [ (fun () -> ignore (Slo.create ~target:1.5 ~bucket:10 ~windows:[ 100 ] ())) ]

(* --- Off level: constant-cost, zero-allocation ------------------------ *)

let test_off_zero_alloc () =
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
  let dw = Gc.minor_words () -. w0 in
  if dw > 64.0 then
    Alcotest.failf "Off span path allocated %.0f words over %d iterations" dw
      iters

(* --- Pipeline decision spans through Svc ------------------------------ *)

let test_svc_decision_spans () =
  with_spans @@ fun () ->
  let clock, advance = Clock.manual () in
  let boom = ref true in
  let ops =
    {
      Svc.insert =
        (fun _ _ ->
          advance 1;
          if !boom then begin
            boom := false;
            failwith "flaky"
          end
          else true);
      delete = (fun _ -> true);
      find = (fun _ -> true);
    }
  in
  let cfg =
    Svc.config ~clock ~seed:7
      ~retry:(Some (Retry.policy ~max_attempts:2 ~base_delay:1 ()))
      ()
  in
  let svc = Svc.create cfg ops in
  let ctx = Span.root ~name:"request" ~now:(Clock.now clock) in
  let out = Svc.call svc ~ctx (Svc.Insert (1, 1)) in
  advance 1;
  Span.end_ ctx ~now:(Clock.now clock) ~ok:true;
  Alcotest.(check bool) "served after one retry" true (out = Svc.Served true);
  let tr =
    match Span.find_trace (Span.trace_id ctx) with
    | Some tr -> tr
    | None -> Alcotest.fail "completed tree not retained"
  in
  (match Span.well_formed tr with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let spans = Span.tree_spans tr in
  let names = List.map (fun s -> s.Span.s_name) spans in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true (List.mem n names))
    [ "request"; "deadline"; "attempt"; "retry-wait" ];
  Alcotest.(check int) "one span per attempt" 2
    (List.length (List.filter (String.equal "attempt") names));
  Alcotest.(check bool) "failed attempt marked not-ok" true
    (List.exists (fun s -> s.Span.s_name = "attempt" && not s.Span.s_ok) spans);
  Alcotest.(check bool) "retry event on the request span" true
    (List.exists
       (fun (_, e) -> match e with Span.Retry_wait _ -> true | _ -> false)
       (Span.span_events (Span.tree_root tr)))

(* --- C&S attribution through the memory seam ------------------------- *)

(* Atomic memory whose next C&S fails once, as if another process had
   won the race. *)
module Flaky_mem = struct
  include Lf_kernel.Atomic_mem

  let fail_next = ref false

  let cas r ~kind ~expect v =
    if !fail_next then begin
      fail_next := false;
      false
    end
    else cas r ~kind ~expect v
end

module Traced_list =
  Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_obs.Trace_mem.Make (Flaky_mem))

module FP = Lf_kernel.Fault_point
module ME = Lf_kernel.Mem_event
module Sim = Lf_dsim.Sim
module Sim_fault_mem = Lf_fault.Fault_mem.Make (Lf_dsim.Sim_mem)

module Sim_traced_list =
  Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_obs.Trace_mem.Make (Sim_fault_mem))

(* The one attempt span, over every well-formed tree, whose [op] event
   names [op]; nothing may nest under it. *)
let attempt_of op =
  let attempts =
    List.concat_map
      (fun tr ->
        (match Span.well_formed tr with Ok () -> () | Error e -> Alcotest.fail e);
        let spans = Span.tree_spans tr in
        List.filter
          (fun s ->
            s.Span.s_name = "attempt"
            && List.exists
                 (fun (_, e) -> match e with Span.Op (o, _) -> o = op | _ -> false)
                 (Span.span_events s))
          spans
        |> List.map (fun a ->
               Alcotest.(check bool) "no span nested under the attempt" false
                 (List.exists (fun s -> s.Span.s_parent = a.Span.s_id) spans);
               a))
      (Span.trees ())
  in
  match attempts with
  | [ s ] -> s
  | l -> Alcotest.failf "expected one attempt, got %d" (List.length l)

let events s = List.map snd (Span.span_events s)

(* A failed C&S lands in the attempt span of the lane that suffered it.
   Two inputs: one call on atomics whose first C&S fails; and two
   simulated processes sharing one domain, each lane with its own
   targeted failure, whose traced calls the simulator interleaves. *)
let test_cas_attribution () =
  (with_spans @@ fun () ->
   let clock, _ = Clock.manual () in
   let l = Traced_list.create () in
   let ops =
     {
       Svc.insert = Traced_list.insert l;
       delete = Traced_list.delete l;
       find = (fun k -> Option.is_some (Traced_list.find l k));
     }
   in
   let svc = Svc.create (Svc.config ~clock ()) ops in
   let root = Span.root ~name:"request" ~now:(Clock.now clock) in
   Flaky_mem.fail_next := true;
   let out = Svc.call svc ~ctx:root (Svc.Insert (7, 70)) in
   Span.end_ root ~now:(Clock.now clock) ~ok:true;
   Alcotest.(check bool) "insert served" true (out = Svc.Served true);
   Alcotest.(check bool) "the injected C&S failure fired" false !Flaky_mem.fail_next;
   Alcotest.(check bool) "the attempt carries the failure" true
     (events (attempt_of Lf_obs.Obs_event.Insert)
     = [ Span.Op (Lf_obs.Obs_event.Insert, 7); Span.Cas_fail ME.Insertion ]));
  with_spans @@ fun () ->
  let l = Sim_traced_list.create () in
  (* Lane 0 links 10 after 5 while lane 1 unlinks 30 after 20: no C&S
     of one can fail because of the other. *)
  Sim.quiet (fun () ->
      List.iter (fun k -> ignore (Sim_traced_list.insert l k k)) [ 5; 20; 30 ]);
  let clock = Clock.sim () in
  let svc =
    Svc.create (Svc.config ~clock ())
      {
        Svc.insert = Sim_traced_list.insert l;
        delete = Sim_traced_list.delete l;
        find = (fun k -> Option.is_some (Sim_traced_list.find l k));
      }
  in
  let fail_first kind lane =
    { Lf_fault.Fault.point = FP.Cas kind; action = Fail_cas; mode = At 1; lane = Some lane }
  in
  Sim_fault_mem.install
    (Lf_fault.Fault.make_plan ~seed:1
       [ fail_first ME.Insertion 0; fail_first ME.Flagging 1 ]);
  let traced req _pid =
    let ctx = Span.root ~name:"request" ~now:(Clock.now clock) in
    let out = Svc.call svc ~ctx req in
    Span.end_ ctx ~now:(Clock.now clock) ~ok:(out = Svc.Served true)
  in
  let injected =
    Fun.protect ~finally:Sim_fault_mem.uninstall (fun () ->
        ignore
          (Sim.run ~policy:Sim.Round_robin
             [| traced (Svc.Insert (10, 10)); traced (Svc.Delete 30) |]);
        Sim_fault_mem.injected ())
  in
  Alcotest.(check (list int)) "one injected failure per lane" [ 0; 1 ]
    (List.sort Int.compare
       (List.map (fun (i : Lf_fault.Fault.injected) -> i.i_lane) injected));
  let ins = attempt_of Lf_obs.Obs_event.Insert in
  let del = attempt_of Lf_obs.Obs_event.Delete in
  Alcotest.(check bool) "the simulator interleaved the two attempts" true
    (ins.Span.s_begin < del.Span.s_end && del.Span.s_begin < ins.Span.s_end);
  Alcotest.(check bool) "lane 0's attempt carries its insertion failure" true
    (events ins = [ Span.Op (Lf_obs.Obs_event.Insert, 10); Span.Cas_fail ME.Insertion ]);
  Alcotest.(check bool) "lane 1's attempt carries its flagging failure" true
    (events del = [ Span.Op (Lf_obs.Obs_event.Delete, 30); Span.Cas_fail ME.Flagging ])

(* --- Router: hedge spans, drain accounting, journal stamps ------------ *)

type tb = { h : (int, int) Hashtbl.t; w_killed : bool ref }

let table_backend () =
  let tb = { h = Hashtbl.create 32; w_killed = ref false } in
  let guard ~write () = if write && !(tb.w_killed) then failwith "down" in
  let b =
    {
      Router.insert =
        (fun k v ->
          guard ~write:true ();
          if Hashtbl.mem tb.h k then false
          else begin
            Hashtbl.replace tb.h k v;
            true
          end);
      delete =
        (fun k ->
          guard ~write:true ();
          if Hashtbl.mem tb.h k then begin
            Hashtbl.remove tb.h k;
            true
          end
          else false);
      find = (fun k -> guard ~write:false (); Hashtbl.find_opt tb.h k);
      batched = None;
    }
  in
  (tb, b)

let shard_key ring s =
  let rec go k = if Hash_ring.shard_of ring k = s then k else go (k + 1) in
  go 0

let test_router_hedge_spans () =
  with_spans @@ fun () ->
  let clock, _ = Clock.manual () in
  let ring = Hash_ring.create ~seed:3 ~shards:2 () in
  let tbs = Array.init 2 (fun _ -> table_backend ()) in
  let cfg _ =
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
    Router.create ~hedge_reads:true ~ring ~svc_config:cfg (fun i ->
        snd tbs.(i))
  in
  let k = shard_key ring 0 in
  ignore (Router.call router (Svc.Insert (k, 7)));
  (fst tbs.(0)).w_killed := true;
  let rec trip budget =
    if budget = 0 then Alcotest.fail "breaker never opened"
    else
      match Router.call router (Svc.Insert (k, 8)) with
      | Svc.Rejected Svc.Breaker_open -> ()
      | _ -> trip (budget - 1)
  in
  trip 10;
  (* A traced read rejected by the breaker and served by the hedge. *)
  let ctx = Span.root ~name:"request" ~now:(Clock.now clock) in
  let out = Router.call router ~ctx (Svc.Find k) in
  Span.end_ ctx ~now:(Clock.now clock) ~ok:true;
  Alcotest.(check bool) "hedge served the read" true (out = Svc.Served true);
  let attempts, wins = (Router.hedge_stats router).(0) in
  Alcotest.(check bool) "hedge attempt counted" true (attempts >= 1);
  Alcotest.(check int) "hedge win counted" 1 wins;
  let tr =
    match Span.find_trace (Span.trace_id ctx) with
    | Some tr -> tr
    | None -> Alcotest.fail "tree not retained"
  in
  (match Span.well_formed tr with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let spans = Span.tree_spans tr in
  let hedge =
    match List.filter (fun s -> s.Span.s_name = "hedge") spans with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one hedge span, got %d" (List.length l)
  in
  (match Span.span_events hedge with
  | [ (_, Span.Hedge_outcome "served") ] -> ()
  | _ -> Alcotest.fail "hedge outcome event missing");
  (* The fan-out span carries the shard name and parents the hedge. *)
  Alcotest.(check bool) "fan-out span parents the hedge" true
    (List.exists
       (fun s ->
         s.Span.s_name = "shard0" && s.Span.s_id = hedge.Span.s_parent)
       spans);
  (* Health surfaces attempts and wins per shard. *)
  let metrics = Lf_obs.Prom.render_metrics (Health.metrics router) in
  Alcotest.(check bool) "hedge wins exported" true
    (contains metrics "lf_shard_hedge_wins_total{shard=\"0\"} 1");
  Alcotest.(check bool) "drained keys exported" true
    (contains metrics "lf_shard_rebalance_drained_keys_total 0");
  Alcotest.(check bool) "health line shows wins/attempts" true
    (contains (Health.line router) "hedged=1/")

(* A rebalance racing an in-flight operation must wait for the key to
   drain — and count it, trace it, and journal the handoff with
   seq/tick stamps. *)
let test_rebalance_drain_and_journal () =
  with_spans @@ fun () ->
  let clock, _ = Clock.manual () in
  let ring = Hash_ring.create ~seed:5 ~shards:2 () in
  let gate = Mutex.create () in
  let gate_cv = Condition.create () in
  let gate_closed = ref true and started = ref false in
  let k = shard_key ring 0 in
  let to_ = 1 in
  let tbs = Array.init 2 (fun _ -> Hashtbl.create 16) in
  let backend i =
    {
      Router.insert =
        (fun key v ->
          if Hashtbl.mem tbs.(i) key then false
          else begin
            Hashtbl.replace tbs.(i) key v;
            true
          end);
      delete =
        (fun key ->
          if Hashtbl.mem tbs.(i) key then begin
            Hashtbl.remove tbs.(i) key;
            true
          end
          else false);
      find =
        (fun key ->
          if i = 0 && key = k then begin
            Mutex.lock gate;
            started := true;
            Condition.broadcast gate_cv;
            while !gate_closed do
              Condition.wait gate_cv gate
            done;
            Mutex.unlock gate
          end;
          Hashtbl.find_opt tbs.(i) key);
      batched = None;
    }
  in
  let router =
    Router.create ~hedge_reads:false ~ring
      ~next_key:(fun i -> Support.next_in_table tbs.(i))
      ~svc_config:(fun _ -> Svc.config ~clock ())
      backend
  in
  ignore (Router.call router (Svc.Insert (k, 9)));
  (* A reader parks inside shard 0's backend, holding [k] in flight. *)
  let reader = Domain.spawn (fun () -> Router.call router (Svc.Find k)) in
  Mutex.lock gate;
  while not !started do
    Condition.wait gate_cv gate
  done;
  Mutex.unlock gate;
  let mover =
    Domain.spawn (fun () ->
        Router.rebalance router ~slot:(Hash_ring.slot_of ring k) ~to_)
  in
  (* The mover reaches [k], finds it in flight, counts it and parks on
     the drain condition; only then release the reader. *)
  let rec wait_drained budget =
    if budget = 0 then Alcotest.fail "rebalance never waited on the key"
    else if Router.drained_keys router = 0 then begin
      Unix.sleepf 0.002;
      wait_drained (budget - 1)
    end
  in
  wait_drained 2500;
  Mutex.lock gate;
  gate_closed := false;
  Condition.broadcast gate_cv;
  Mutex.unlock gate;
  let read = Domain.join reader in
  let moved = Domain.join mover in
  Alcotest.(check bool) "parked read served" true (read = Svc.Served true);
  Alcotest.(check bool) "the key moved" true (moved >= 1);
  Alcotest.(check int) "drained key counted" 1 (Router.drained_keys router);
  Alcotest.(check (option int)) "key lives on the new shard" (Some 9)
    (Hashtbl.find_opt tbs.(to_) k);
  (* The rebalance traced itself: a root with a drain span on [k]. *)
  let rtree =
    List.find_opt
      (fun tr -> (Span.tree_root tr).Span.s_name = "rebalance")
      (Span.trees ())
  in
  (match rtree with
  | None -> Alcotest.fail "rebalance tree not retained"
  | Some tr ->
      (match Span.well_formed tr with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let drains =
        List.filter (fun s -> s.Span.s_name = "drain") (Span.tree_spans tr)
      in
      Alcotest.(check int) "one drain span" 1 (List.length drains);
      match Span.span_events (List.hd drains) with
      | [ (_, Span.Drain_wait dk) ] -> Alcotest.(check int) "drain key" k dk
      | _ -> Alcotest.fail "drain event missing");
  (* Journal entries are stamped [#seq t=tick] and seq is monotonic. *)
  let stamps =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | seq :: tick :: _ when String.length seq > 1 && seq.[0] = '#' ->
            Option.bind
              (int_of_string_opt (String.sub seq 1 (String.length seq - 1)))
              (fun s ->
                if String.length tick > 2 && String.sub tick 0 2 = "t=" then
                  Option.map
                    (fun t -> (s, t))
                    (int_of_string_opt
                       (String.sub tick 2 (String.length tick - 2)))
                else None)
        | _ -> None)
      (Router.journal ())
  in
  Alcotest.(check bool) "every journal line stamped" true
    (List.length stamps = List.length (Router.journal ())
    && List.length stamps >= 2);
  let seqs = List.map fst stamps in
  Alcotest.(check bool) "seq strictly monotonic" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length seqs - 1) seqs)
       (List.tl seqs))

(* One switch: a rebalance opens its root span at every level, but a
   tree exists only while the recorder is at Tracing — below it nothing
   reaches the recorder's rings or the [lf_latency] exemplars. *)
let test_trees_follow_recorder_level () =
  let rebalance_trees level =
    with_level level @@ fun () ->
    let clock, _ = Clock.manual () in
    let ring = Hash_ring.create ~seed:5 ~shards:2 () in
    let tbs = Array.init 2 (fun _ -> table_backend ()) in
    let router =
      Router.create ~hedge_reads:false ~ring
        ~next_key:(fun i -> Support.next_in_table (fst tbs.(i)).h)
        ~svc_config:(fun _ -> Svc.config ~clock ())
        (fun i -> snd tbs.(i))
    in
    let k = shard_key ring 0 in
    ignore (Router.call router (Svc.Insert (k, 9)));
    let moved =
      Router.rebalance router ~slot:(Hash_ring.slot_of ring k) ~to_:1
    in
    Alcotest.(check int) "the key moved" 1 moved;
    (Span.trees (), Recorder.exemplars ())
  in
  with_level Recorder.Histograms (fun () ->
      Alcotest.(check bool) "root is nil below Tracing" false
        (Span.active (Span.root ~name:"request" ~now:0)));
  let trees, exemplars = rebalance_trees Recorder.Histograms in
  Alcotest.(check int) "no tree at Histograms" 0 (List.length trees);
  Alcotest.(check int) "no exemplar at Histograms" 0 (List.length exemplars);
  let trees, _ = rebalance_trees Recorder.Tracing in
  Alcotest.(check (list string)) "one rebalance tree at Tracing"
    [ "rebalance" ]
    (List.map (fun tr -> (Span.tree_root tr).Span.s_name) trees)

(* --- Wire verbs ------------------------------------------------------- *)

let test_wire_verbs () =
  (match Lf_svc.Wire.parse "SLO" with
  | Ok Lf_svc.Wire.Slo -> ()
  | _ -> Alcotest.fail "SLO did not parse");
  (match Lf_svc.Wire.parse "flightdump" with
  | Ok Lf_svc.Wire.Flightdump -> ()
  | _ -> Alcotest.fail "FLIGHTDUMP did not parse");
  match Lf_svc.Wire.parse "SLO now" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SLO with arguments should not parse"

let () =
  Alcotest.run "trace"
    [
      ( "span",
        [
          test_nesting_well_formed;
          Alcotest.test_case "ids unique across domains" `Quick
            test_ids_unique_across_domains;
          Alcotest.test_case "a tree spans domains" `Quick
            test_tree_across_domains;
          Alcotest.test_case "Recorder.reset clears trees and exemplars"
            `Quick test_recorder_reset_clears_traces;
          Alcotest.test_case "off level allocates nothing" `Quick
            test_off_zero_alloc;
        ] );
      ( "replay",
        [
          Alcotest.test_case "deterministic executions dump byte-identical"
            `Quick test_replay_byte_identical;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dumps create missing dirs, report unusable ones"
            `Quick test_flight_dump_dirs;
        ] );
      ( "exemplars",
        [
          Alcotest.test_case "tail buckets and worst-recent traces" `Quick
            test_exemplars;
          Alcotest.test_case "prometheus exemplar syntax" `Quick
            test_prom_exemplar_lines;
        ] );
      ( "slo",
        [ Alcotest.test_case "burn-rate math" `Quick test_slo_burn_math ] );
      ( "pipeline",
        [
          Alcotest.test_case "decision spans through Svc" `Quick
            test_svc_decision_spans;
          Alcotest.test_case "C&S attribution into the attempt span" `Quick
            test_cas_attribution;
        ] );
      ( "router",
        [
          Alcotest.test_case "hedge spans and win counters" `Quick
            test_router_hedge_spans;
          Alcotest.test_case "rebalance drain accounting + journal stamps"
            `Quick test_rebalance_drain_and_journal;
          Alcotest.test_case "rebalance trees follow the recorder level"
            `Quick test_trees_follow_recorder_level;
        ] );
      ( "wire",
        [ Alcotest.test_case "SLO / FLIGHTDUMP verbs" `Quick test_wire_verbs ]
      );
    ]
