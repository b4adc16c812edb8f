(* lfdict: command-line playground for the lock-free dictionaries.

   Subcommands:
     throughput  run a workload against an implementation and report ops/s
     check       record concurrent histories and check linearizability
     chaos       run a workload under an injected-fault plan (--faults)
     list        show the available implementations

     trace       record an execution, emit Chrome trace-event JSON
     metrics     record an execution, emit a Prometheus text snapshot

     model       exhaustive small-scope DPOR certification + mutant gate

     serve       line-protocol TCP front behind the lib/svc pipeline
     call        tiny client for a running serve (smoke tests, CI)
     flightdump  ask a tracing serve to dump its flight recorder

   Examples:
     dune exec bin/lfdict.exe -- list
     dune exec bin/lfdict.exe -- model -i fr-list -i fr-skiplist --quick
     dune exec bin/lfdict.exe -- trace --sim --seed 7 -o out.trace.json --check
     dune exec bin/lfdict.exe -- metrics -i fr-skiplist -d 4
     dune exec bin/lfdict.exe -- throughput -i fr-skiplist -d 4 -n 100000
     dune exec bin/lfdict.exe -- throughput -i fr-list --hints off
     dune exec bin/lfdict.exe -- throughput -i fr-list --batch 64
     dune exec bin/lfdict.exe -- check -i fr-list -s 50
     dune exec bin/lfdict.exe -- chaos -i fr-list \
       --faults "seed=7;crash:after-flag-cas:at=1:lane=0" *)

open Cmdliner

let impls : (string * (module Lf_workload.Runner.INT_DICT)) list =
  [
    ("fr-list", (module Lf_list.Fr_list.Atomic_int));
    ("fr-skiplist", (module Lf_skiplist.Fr_skiplist.Atomic_int));
    ("harris-list", (module Lf_baselines.Harris_list.Atomic_int));
    ("michael-list", (module Lf_baselines.Michael_list.Atomic_int));
    ("valois-list", (module Lf_baselines.Valois_list.Atomic_int));
    ("lazy-list", (module Lf_baselines.Lazy_list.Int));
    ("coarse-list", (module Lf_baselines.Coarse_list.Int));
    ("fraser-skiplist", (module Lf_skiplist.Fraser_skiplist.Atomic_int));
    ("st-skiplist", (module Lf_skiplist.St_skiplist.Atomic_int));
    ("locked-skiplist", (module Lf_skiplist.Locked_skiplist.Int));
    ("lf-hashtable", (module Lf_hashtable.Atomic_int));
  ]

(* --hints off variants: the same structures created with the per-domain
   predecessor caches disabled (the EXP-17 ablation, from the command
   line). *)
module Fr_list_nohints = struct
  include Lf_list.Fr_list.Atomic_int

  let name = "fr-list(-hints)"
  let create () = create_with ~use_hints:false ~use_flags:true ()
end

module Lf_hashtable_nohints = struct
  include Lf_hashtable.Atomic_int

  let name = "lf-hashtable(-hints)"
  let create () = create_with ~use_hints:false ()
end

let nohints_impls : (string * (module Lf_workload.Runner.INT_DICT)) list =
  [
    ("fr-list", (module Fr_list_nohints));
    ("lf-hashtable", (module Lf_hashtable_nohints));
  ]

(* The FR structures instantiated over the protocol sanitizer: every C&S and
   store is validated against the deletion state machine (INV 1-5); a
   violation aborts with a structured report (event, per-process traces,
   chain snapshot). *)
module Checked_mem = Lf_check.Check_mem.Make (Lf_kernel.Atomic_mem)
module Checked_fr_list = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Checked_mem)
module Checked_fr_skiplist =
  Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Checked_mem)

let checked_impls : (string * (module Lf_workload.Runner.INT_DICT)) list =
  [
    ("fr-list", (module Checked_fr_list));
    ("fr-skiplist", (module Checked_fr_skiplist));
  ]

let resolve name checked ~hints : (module Lf_workload.Runner.INT_DICT) =
  if checked then (
    if not hints then (
      prerr_endline "--hints off is not supported together with --checked";
      exit 2);
    match List.assoc_opt name checked_impls with
    | Some m -> m
    | None ->
        Printf.eprintf "--checked is available for: %s\n"
          (String.concat ", " (List.map fst checked_impls));
        exit 2)
  else if not hints then
    match List.assoc_opt name nohints_impls with
    | Some m -> m
    | None ->
        Printf.eprintf "--hints off is available for: %s\n"
          (String.concat ", " (List.map fst nohints_impls));
        exit 2
  else List.assoc name impls

let impl_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (n, _) -> (n, n)) impls)) "fr-skiplist"
    & info [ "i"; "impl" ] ~docv:"IMPL" ~doc:"Implementation under test.")

let checked_arg =
  Arg.(
    value & flag
    & info [ "checked" ]
        ~doc:
          "Run under the Lf_check.Check_mem protocol sanitizer (fr-list and \
           fr-skiplist).  Slower; any protocol violation aborts with a \
           structured report naming the broken invariant.")

let domains_arg =
  Arg.(value & opt int 2 & info [ "d"; "domains" ] ~docv:"N" ~doc:"Domains.")

let ops_arg =
  Arg.(
    value & opt int 50_000
    & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations per domain.")

let range_arg =
  Arg.(value & opt int 1024 & info [ "r"; "range" ] ~docv:"N" ~doc:"Key range.")

let mix_arg =
  Arg.(
    value & opt (pair ~sep:',' int int) (20, 20)
    & info [ "m"; "mix" ] ~docv:"I,D"
        ~doc:"Insert and delete percentages (rest are searches).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let seeds_arg =
  Arg.(
    value & opt int 30
    & info [ "s"; "seeds" ] ~docv:"N" ~doc:"Number of seeds / histories.")

let hints_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "hints" ] ~docv:"on|off"
        ~doc:
          "Per-domain predecessor caches (fr-list, lf-hashtable).  $(b,off) \
           recreates the EXP-17 ablation baseline.")

let batch_arg =
  Arg.(
    value & opt int 0
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Issue operations through fr-list's batched entry points, \
           $(docv) per key-sorted chunk (0 = one at a time).  Only the \
           list's batches carry a predecessor from key to key (EXP-17 \
           Part C).")

let throughput_cmd =
  let run impl checked hints batch domains ops range (ins, del) seed =
    let mix = { Lf_workload.Opgen.insert_pct = ins; delete_pct = del } in
    let r =
      if batch <= 0 then
        let (module D : Lf_workload.Runner.INT_DICT) =
          resolve impl checked ~hints
        in
        Lf_workload.Runner.run_throughput
          (module D)
          ~domains ~ops_per_domain:ops ~key_range:range ~mix ~seed ()
      else begin
        if checked then (
          prerr_endline "--batch is not supported together with --checked";
          exit 2);
        if impl <> "fr-list" then (
          prerr_endline "--batch is available for: fr-list";
          exit 2);
        let (module D : Lf_workload.Runner.INT_DICT_BATCHED) =
          if hints then (module Lf_list.Fr_list.Atomic_int)
          else (module Fr_list_nohints)
        in
        Lf_workload.Runner.run_throughput_batched
          (module D)
          ~domains ~ops_per_domain:ops ~batch ~key_range:range ~mix ~seed ()
      end
    in
    Printf.printf
      "%s%s%s: %d ops on %d domains in %.3fs -> %.0f ops/s (structure valid%s)\n"
      r.impl
      (if checked then " [checked]" else "")
      (if batch > 0 then Printf.sprintf " [batch %d]" batch else "")
      r.total_ops r.domains r.elapsed_s r.ops_per_s
      (if checked then ", no protocol violations" else "")
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Measure workload throughput.")
    Term.(
      const run $ impl_arg $ checked_arg $ hints_arg $ batch_arg
      $ domains_arg $ ops_arg $ range_arg $ mix_arg $ seed_arg)

let check_cmd =
  let run impl checked domains seeds =
    let (module D : Lf_workload.Runner.INT_DICT) =
      resolve impl checked ~hints:true
    in
    let failed = ref 0 in
    for seed = 1 to seeds do
      let h =
        Lf_workload.Runner.run_recorded
          (module D)
          ~domains ~ops_per_domain:10 ~key_range:5
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed ()
      in
      match Lf_lin.Checker.check h with
      | Lf_lin.Checker.Linearizable -> ()
      | Lf_lin.Checker.Not_linearizable ->
          incr failed;
          Format.printf "NOT LINEARIZABLE (seed %d):@\n%a@." seed
            Lf_lin.History.pp h
    done;
    Printf.printf "%s: %d/%d histories linearizable\n" D.name (seeds - !failed)
      seeds;
    if !failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Record histories and check linearizability.")
    Term.(const run $ impl_arg $ checked_arg $ domains_arg $ seeds_arg)

(* The fault-capable instantiations: the same structures over
   Fault_mem (Atomic_mem), which executes the installed plan against every
   shared access. *)
module Faulty_mem = Lf_fault.Fault_mem.Make (Lf_kernel.Atomic_mem)
module Faulty_fr_list = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Faulty_mem)
module Faulty_fr_skiplist =
  Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Faulty_mem)
module Faulty_harris =
  Lf_baselines.Harris_list.Make (Lf_kernel.Ordered.Int) (Faulty_mem)

(* A fresh instance, as the record the harnesses take. *)
let fresh (module D : Lf_workload.Runner.INT_DICT) =
  let module T = Lf_workload.Dict.Of (D) in
  T.make (D.create ())

let chaos_dict = function
  | "fr-list" -> fresh (module Faulty_fr_list)
  | "fr-skiplist" -> fresh (module Faulty_fr_skiplist)
  | "harris-list" -> fresh (module Faulty_harris)
  | other ->
      Printf.eprintf "chaos is available for: fr-list, fr-skiplist, \
                      harris-list (got %s)\n" other;
      exit 2

let faults_arg =
  Arg.(
    value & opt string ""
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault plan, e.g. \
           $(b,seed=7;cas-fail:flag-cas:p=0.3:burst=4;crash:after-flag-cas:at=1:lane=0). \
           Actions: $(b,cas-fail), $(b,crash), $(b,stall); points: \
           $(b,read), $(b,write), $(b,cas), a C&S kind \
           ($(b,insert-cas), $(b,flag-cas), $(b,mark-cas), $(b,unlink-cas)) \
           or $(b,after-)KIND; params: $(b,at=K), $(b,p=)/$(b,burst=), \
           $(b,n=) (stall rounds), $(b,lane=).  Empty = no faults.")

let window_arg =
  Arg.(
    value & opt float 0.3
    & info [ "w"; "window" ] ~docv:"S" ~doc:"Measured window in seconds.")

let budget_arg =
  Arg.(
    value & opt float 0.05
    & info [ "budget" ] ~docv:"S"
        ~doc:"Per-operation latency budget for the starvation watchdog.")

let chaos_cmd =
  let run impl faults domains range (ins, del) seed window budget =
    let plan =
      if faults = "" then Lf_fault.Fault.no_faults
      else
        match Lf_fault.Fault.plan_of_string faults with
        | Ok p -> p
        | Error e ->
            Printf.eprintf "bad --faults spec: %s\n" e;
            exit 2
    in
    let mix = { Lf_workload.Opgen.insert_pct = ins; delete_pct = del } in
    let d = chaos_dict impl in
    Faulty_mem.install plan;
    let r =
      Lf_workload.Runner.run_chaos ~budget_s:budget ~window_s:window
        ~sample:(fun () ->
          [ ("injected", List.length (Faulty_mem.injected ())) ])
        ~name:impl d ~domains ~key_range:range ~mix ~seed ()
    in
    let trace = Faulty_mem.injected () in
    Faulty_mem.uninstall ();
    Format.printf "%a@." Lf_workload.Runner.pp_chaos_report r;
    (match trace with
    | [] -> ()
    | _ ->
        Printf.printf "injected faults (first 10 of %d):\n" (List.length trace);
        List.iteri
          (fun i inj ->
            if i < 10 then
              Printf.printf "  %s\n" (Lf_fault.Fault.injected_to_string inj))
          trace);
    if r.c_watchdog_tripped then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a workload under an injected-fault plan and report survivor \
          throughput, crashes and starvation.  Exits 1 if the watchdog \
          trips.")
    Term.(
      const run $ impl_arg $ faults_arg $ domains_arg $ range_arg $ mix_arg
      $ seed_arg $ window_arg $ budget_arg)

let list_cmd =
  let run () =
    print_endline "available implementations (* = supports --checked):";
    List.iter
      (fun (n, _) ->
        Printf.printf "  %s%s\n" n
          (if List.mem_assoc n checked_impls then " *" else ""))
      impls
  in
  Cmd.v (Cmd.info "list" ~doc:"List available implementations.") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* trace / metrics: the lf_obs observability layer from the CLI.  The
   same structures once more, over Trace_mem (Atomic_mem) for wall-clock
   runs and Trace_mem (Sim_mem) for deterministic ones: under --sim the
   recorder's clock is the scheduler's step counter, so the emitted
   Chrome trace is a pure function of the seed (CI diffs two runs
   byte-for-byte). *)

module Traced_mem = Lf_obs.Trace_mem.Make (Lf_kernel.Atomic_mem)
module Traced_fr_list = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Traced_mem)
module Traced_fr_skiplist =
  Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Traced_mem)
module Traced_hashtable = Lf_hashtable.Make (Lf_hashtable.Int_key) (Traced_mem)

module Traced_sim_mem = Lf_obs.Trace_mem.Make (Lf_dsim.Sim_mem)
module Sim_fr_list = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Traced_sim_mem)
module Sim_fr_skiplist =
  Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Traced_sim_mem)
module Sim_hashtable = Lf_hashtable.Make (Lf_hashtable.Int_key) (Traced_sim_mem)

let traced_impls : (string * (module Lf_workload.Runner.INT_DICT)) list =
  [
    ("fr-list", (module Traced_fr_list));
    ("fr-skiplist", (module Traced_fr_skiplist));
    ("lf-hashtable", (module Traced_hashtable));
  ]

let traced_resolve impl : (module Lf_workload.Runner.INT_DICT) =
  match List.assoc_opt impl traced_impls with
  | Some m -> m
  | None ->
      Printf.eprintf "tracing is available for: %s\n"
        (String.concat ", " (List.map fst traced_impls));
      exit 2

let sim_traced_ops = function
  | "fr-list" -> fresh (module Sim_fr_list)
  | "fr-skiplist" -> fresh (module Sim_fr_skiplist)
  | "lf-hashtable" -> fresh (module Sim_hashtable)
  | other ->
      Printf.eprintf "tracing is available for: fr-list, fr-skiplist, \
                      lf-hashtable (got %s)\n" other;
      exit 2

(* Run a workload with the recorder at [level]; returns the divisor that
   converts recorder timestamps to the Chrome trace's time unit.  The
   prefill runs with recording off so collected data covers only the
   measured mix. *)
let observed_run ~level ~sim ~impl ~domains ~ops ~range ~mix ~seed =
  Lf_obs.Recorder.set_level Lf_obs.Recorder.Off;
  Lf_obs.Recorder.reset ();
  if sim then begin
    Lf_obs.Recorder.set_clock Lf_obs.Recorder.Sim_steps;
    let ops_r = sim_traced_ops impl in
    let filled =
      Lf_workload.Sim_driver.prefill ~key_range:range ~count:(range / 2)
        ~seed:(seed + 1) ops_r
    in
    Lf_obs.Recorder.set_level level;
    ignore
      (Lf_workload.Sim_driver.run_mixed ~policy:(Lf_dsim.Sim.Random seed)
         ~initial_size:filled ~procs:domains ~ops_per_proc:ops ~key_range:range
         ~mix ~seed ops_r
        : Lf_dsim.Sim.result);
    Lf_obs.Recorder.set_level Lf_obs.Recorder.Off;
    1
  end
  else begin
    Lf_obs.Recorder.set_clock Lf_obs.Recorder.Real;
    let (module D : Lf_workload.Runner.INT_DICT) = traced_resolve impl in
    Lf_obs.Recorder.set_level level;
    ignore
      (Lf_workload.Runner.run_throughput
         (module D)
         ~domains ~ops_per_domain:ops ~key_range:range ~mix ~seed ()
        : Lf_workload.Runner.throughput);
    Lf_obs.Recorder.set_level Lf_obs.Recorder.Off;
    1000 (* ns -> us, the trace format's native unit *)
  end

let write_output out text =
  match out with
  | "-" -> print_string text
  | f ->
      let oc = open_out_bin f in
      output_string oc text;
      close_out oc

let sim_arg =
  Arg.(
    value & flag
    & info [ "sim" ]
        ~doc:
          "Run under the deterministic simulator: lanes are simulated \
           processes, timestamps are scheduler steps, and the output is a \
           pure function of the seed.")

let out_arg =
  Arg.(
    value & opt string "-"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file ($(b,-) = stdout).")

let validate_arg =
  Arg.(
    value & flag
    & info [ "check" ] ~doc:"Validate the emitted output; exit 1 if malformed.")

let trace_ops_arg =
  Arg.(
    value & opt int 300
    & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations per lane.")

let trace_cmd =
  let run impl sim domains ops range (ins, del) seed out validate =
    let mix = { Lf_workload.Opgen.insert_pct = ins; delete_pct = del } in
    let time_div =
      observed_run ~level:Lf_obs.Recorder.Tracing ~sim ~impl ~domains ~ops
        ~range ~mix ~seed
    in
    let json = Lf_obs.Chrome_trace.to_string ~time_div (Lf_obs.Recorder.events ()) in
    write_output out json;
    if out <> "-" then
      Printf.eprintf "wrote %s: %d events (%d dropped)\n" out
        (Lf_obs.Recorder.event_count ())
        (Lf_obs.Recorder.dropped ());
    if validate then
      match Lf_obs.Chrome_trace.check json with
      | Ok () -> prerr_endline "trace OK"
      | Error e ->
          Printf.eprintf "trace INVALID: %s\n" e;
          exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record an execution and emit Chrome trace-event JSON (load it in \
          chrome://tracing or Perfetto).  With $(b,--sim) the file is \
          byte-identical across reruns with the same seed.")
    Term.(
      const run $ impl_arg $ sim_arg $ domains_arg $ trace_ops_arg $ range_arg
      $ mix_arg $ seed_arg $ out_arg $ validate_arg)

let metrics_cmd =
  let run impl sim domains ops range (ins, del) seed out validate =
    let mix = { Lf_workload.Opgen.insert_pct = ins; delete_pct = del } in
    ignore
      (observed_run ~level:Lf_obs.Recorder.Histograms ~sim ~impl ~domains ~ops
         ~range ~mix ~seed
        : int);
    let text = Lf_obs.Prom.snapshot () in
    write_output out text;
    if validate then
      match Lf_obs.Prom.validate text with
      | Ok () -> prerr_endline "metrics OK"
      | Error e ->
          Printf.eprintf "metrics INVALID: %s\n" e;
          exit 1
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Record an execution and emit a Prometheus text-format snapshot: \
          operation and C&S counters, per-phase failure counts, latency \
          quantiles.")
    Term.(
      const run $ impl_arg $ sim_arg $ domains_arg $ trace_ops_arg $ range_arg
      $ mix_arg $ seed_arg $ out_arg $ validate_arg)

(* ------------------------------------------------------------------ *)
(* model: small-scope DPOR certification (lib/model).  Every scenario is
   explored exhaustively — schedules modulo the happens-before equivalence
   — under the structure's oracles, and the seeded fr-list mutants are run
   up the scope ladder as a coverage check on the checker itself.  The
   whole report is a pure function of the scenarios: two runs are
   byte-identical, which CI diffs. *)

let model_cmd =
  let structures_arg =
    Arg.(
      value
      & opt_all (enum (List.map (fun n -> (n, n)) Lf_model.Certify.structures)) []
      & info [ "i"; "impl" ] ~docv:"IMPL"
          ~doc:
            "Structure to certify (repeatable).  Default: all of them. \
             One of: $(docv) in fr-list, fr-skiplist, lf-hashtable, \
             pqueue, harris-list, valois-list.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "CI smoke scope: drop the 3-process scenarios (the 2-process \
             grids still run to exhaustion).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let no_mutants_arg =
    Arg.(
      value & flag
      & info [ "no-mutants" ]
          ~doc:"Skip the fr-list mutant-kill matrix (certification only).")
  in
  let run structures quick json no_mutants out =
    let structures =
      match structures with [] -> Lf_model.Certify.structures | l -> l
    in
    let cts = Lf_model.Certify.certify_all ~quick ~structures () in
    let kills =
      if no_mutants then None else Some (Lf_model.Certify.kill_matrix ())
    in
    let report =
      if json then
        let certs = String.trim (Lf_model.Certify.render_certificates ~json cts) in
        match kills with
        | None -> Printf.sprintf "{\"certificates\": %s}\n" certs
        | Some ks ->
            Printf.sprintf "{\"certificates\": %s,\n\"mutants\": %s}\n" certs
              (String.trim (Lf_model.Certify.render_kills ~json ks))
      else
        Lf_model.Certify.render_certificates ~json cts
        ^
        match kills with
        | None -> ""
        | Some ks -> Lf_model.Certify.render_kills ~json ks
    in
    write_output out report;
    let ok =
      Lf_model.Certify.certificates_ok cts
      && match kills with None -> true | Some ks -> Lf_model.Certify.kills_ok ks
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Exhaustively model-check the structures at small scope with DPOR \
          (partial-order reduction over the deterministic Sim seam), run \
          every explored schedule under the protocol sanitizer and \
          linearizability oracles, and verify the seeded protocol mutants \
          are killed at minimal scope.  Exits 1 on any failure, truncated \
          scope, or surviving mutant.  Output is byte-identical across \
          runs.")
    Term.(
      const run $ structures_arg $ quick_arg $ json_arg $ no_mutants_arg
      $ out_arg)

(* ------------------------------------------------------------------ *)
(* serve / call: a minimal line-protocol TCP front over the shard
   router (lib/shard) and its per-shard service pipelines (lib/svc).
   One request per line (PUT/DEL/GET/MGET/MSET/HEALTH/METRICS/...
   QUIT/SHUTDOWN — see Lf_svc.Wire); every --shards, 1 included, takes
   the same path (wire, Router, Svc, backend), so deadlines, retry
   budgets, shedding and the breaker are all live behind the socket.
   Each connection reads into one reused buffer (Lf_svc.Reader), parses
   in place into one reused batch, and writes replies straight to its
   channel, flushed when no complete line is left.  Sequential accept
   loop: this is the demo front for EXP-20 and the CI smoke, not a
   production server. *)

let port_arg =
  Arg.(
    value & opt int 7071
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1.")

let deadline_ms_arg =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Default per-request deadline in milliseconds (0 = none).")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:"Retry failed operations up to $(docv) attempts total (0 = off).")

let retry_budget_arg =
  Arg.(
    value & opt int 0
    & info [ "retry-budget" ] ~docv:"N"
        ~doc:
          "Token-bucket retry budget: at most $(docv) retries outstanding, \
           one token regained per 100ms (0 = unlimited).")

let shed_arg =
  Arg.(
    value & opt int 0
    & info [ "shed" ] ~docv:"N"
        ~doc:
          "Load shedding: reject when more than $(docv) requests are \
           in flight, or when the deadline is infeasible against the \
           service-time estimate (0 = off).")

let breaker_flag =
  Arg.(
    value & flag
    & info [ "breaker" ]
        ~doc:
          "Circuit breaker: trip on a windowed failure/latency spike, \
           serve reads only while open, probe and recover.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard the keyspace over $(docv) dictionary instances behind a \
           consistent-hash router, each shard wrapped in its own \
           pipeline, so one faulted shard degrades only its own \
           keyspace.  HEALTH reports per-shard status; KILL <i> makes \
           shard $(i,i)'s backend fail (containment demo).  1 = one \
           shard behind the same router.")

let trace_requests_flag =
  Arg.(
    value & flag
    & info [ "trace-requests" ]
        ~doc:
          "End-to-end request tracing: sets the recorder to its tracing \
           level, so every request runs under a causal span tree (router \
           fan-out, pipeline decisions, one span per backend attempt \
           naming its op and key), the flight recorder retains completed \
           trees per domain, METRICS carries tail exemplars, and \
           anomalies (KILL, a breaker opening, SLO fast burn) dump a \
           trace bundle into --dump-dir (created if missing).")

let dump_dir_arg =
  Arg.(
    value & opt string "flight-dumps"
    & info [ "dump-dir" ] ~docv:"DIR"
        ~doc:"Directory for flight-recorder dump bundles.")

let self_heal_flag =
  Arg.(
    value & flag
    & info [ "self-heal" ]
        ~doc:
          "Run the shard supervisor: watch per-shard health (breaker \
           state, shed rate, SLO fast burn) and evacuate slots off a \
           persistently-sick shard automatically — promoting the slot's \
           replica when one exists (--replicas), else copying to the \
           least-loaded healthy shard.  Hysteresis, per-tick move \
           budgets and exponential backoff keep healing from becoming a \
           migration storm.  HEAL reports supervisor status; heal \
           begin/end drop flight bundles under --trace-requests.  \
           A heal walks the keys the sick shard holds with the \
           structure's successor query, so it needs fr-list or \
           fr-skiplist.  Requires --shards > 1.")

let replicas_flag =
  Arg.(
    value & flag
    & info [ "replicas" ]
        ~doc:
          "Keep a lagged copy of every slot on the next shard over, fed \
           from an async apply journal.  Reads whose shard is dead (not \
           merely tripped) fail over to the copy and answer STALE <bool> \
           lag=<ticks> — staleness is always explicit on the wire, never \
           a silent OK.  REPLICAS reports per-slot lag; the supervisor \
           (--self-heal) promotes a replica when it evacuates the \
           primary.  Requires --shards > 1.")

(* What serve runs: a dictionary, and the successor query a healing
   migration walks a shard's keys with (--self-heal).  Only the paper's
   two structures have one: SEARCHFROM answers "the smallest key >= k"
   as [find_ge]. *)
module type SERVE_DICT = sig
  include Lf_workload.Runner.INT_DICT

  val next_key : (int t -> int -> int option) option
end

module Ordered (D : sig
  include Lf_workload.Runner.INT_DICT

  val find_ge : 'a t -> int -> (int * 'a) option
end) =
struct
  include D

  let next_key = Some (fun t k -> Option.map fst (D.find_ge t k))
end

let ordered_impls : (string * (module SERVE_DICT)) list =
  [
    ("fr-list", (module Ordered (Lf_list.Fr_list.Atomic_int)));
    ("fr-skiplist", (module Ordered (Lf_skiplist.Fr_skiplist.Atomic_int)));
  ]

let resolve_serve name ~self_heal : (module SERVE_DICT) =
  match List.assoc_opt name ordered_impls with
  | Some m -> m
  | None when self_heal ->
      Printf.eprintf "--self-heal is available for: %s\n"
        (String.concat ", " (List.map fst ordered_impls));
      exit 2
  | None ->
      let (module D) = resolve name false ~hints:true in
      (module struct
        include D

        let next_key = None
      end)

(* A stale answer is still an answered read: the SLO counts served,
   fresh or lag-tagged — the staleness contract is the wire token's
   job, the burn rate's job is "did we answer". *)
let good = function
  | Lf_svc.Svc.Served _ | Lf_svc.Svc.Served_stale _ -> true
  | Lf_svc.Svc.Rejected _ | Lf_svc.Svc.Failed _ -> false

let rec count_bad (b : Lf_svc.Svc.batch) i acc =
  if i = b.len then acc
  else count_bad b (i + 1) (if good b.outcomes.(i) then acc else acc + 1)

let serve_cmd =
  let run impl port deadline_ms retry budget shed breaker shards trace_requests
      dump_dir self_heal replicas =
    (* The one observability switch: METRICS reports the recorder's
       operation histograms, and --trace-requests also builds request
       span trees. *)
    Lf_obs.Recorder.set_level
      (if trace_requests then Lf_obs.Recorder.Tracing
       else Lf_obs.Recorder.Histograms);
    let (module D : SERVE_DICT) = resolve_serve impl ~self_heal in
    let clock = Lf_svc.Clock.real () in
    let ms = Lf_svc.Clock.ms clock in
    let now () = Lf_svc.Clock.now clock in
    (* The serve SLO: 99% of requests good over a 5s fast window and a
       60s slow window, quarter-second buckets.  Served counts as good;
       rejections and failures burn budget. *)
    let slo =
      Lf_obs.Slo.create ~target:0.99 ~bucket:(ms 250)
        ~windows:[ ms 5_000; ms 60_000 ]
        ()
    in
    let cfg =
      Lf_svc.Svc.config ~clock
        ~deadline:(if deadline_ms <= 0 then max_int else ms deadline_ms)
        ~retry:
          (if retry <= 0 then None
           else
             Some (Lf_svc.Retry.policy ~max_attempts:retry ~base_delay:(ms 1) ()))
        ~budget:
          (if budget <= 0 then Lf_svc.Retry.Budget.unlimited
           else
             Lf_svc.Retry.Budget.config ~capacity:budget
               ~refill_every:(ms 100) ())
        ~shed:
          (if shed <= 0 then None
           else Some (Lf_svc.Shed.config ~max_queue:shed ~est_init:(ms 1) ()))
        ~breaker:
          (if not breaker then None
           else
             Some
               (Lf_svc.Breaker.config ~window:(ms 1000)
                  ~latency_threshold:(ms 100) ~open_for:(ms 1000) ()))
        ~backoff:(fun d -> Unix.sleepf (float_of_int d /. 1e9))
        ()
    in
    if shards < 1 then begin
      prerr_endline "lfdict serve: --shards must be >= 1";
      exit 2
    end;
    if (self_heal || replicas) && shards <= 1 then begin
      prerr_endline "lfdict serve: --self-heal/--replicas need --shards > 1";
      exit 2
    end;
    (* --shards N dictionary instances behind the consistent-hash
       router, each with its own pipeline built from the same flags.
       KILL flips a per-shard switch that makes that backend raise —
       the containment demo for the CI smoke: the victim's breaker trips
       and HEALTH turns "s<i>=degraded" while the other shards keep
       answering.  The accept loop is sequential, so plain bool
       switches suffice. *)
    let kills = Array.make shards false in
    let dicts = Array.init shards (fun _ -> D.create ()) in
    (* Recorder spans around each operation, so METRICS (the §9
       Prometheus snapshot) has live operation counters and latency
       quantiles to report.  Written out per operation: a wrapper
       taking the operation as a closure would allocate one per key. *)
    let mk_backend i : Lf_shard.Router.backend =
      let t = dicts.(i) in
      let live () = if kills.(i) then failwith "shard killed" in
      {
        Lf_shard.Router.insert =
          (fun k v ->
            live ();
            Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Insert ~key:k;
            let ok = D.insert t k v in
            Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Insert ~ok;
            ok);
        delete =
          (fun k ->
            live ();
            Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Delete ~key:k;
            let ok = D.delete t k in
            Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Delete ~ok;
            ok);
        find =
          (fun k ->
            live ();
            Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Find ~key:k;
            let v = D.find t k in
            Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Find
              ~ok:(Option.is_some v);
            v);
        batched = None;
      }
    in
    let ring = Lf_shard.Hash_ring.create ~seed:1 ~shards () in
    (* A killed shard's cursor raises like its backend. *)
    let next_key =
      Option.map
        (fun next i k ->
          if kills.(i) then failwith "shard killed";
          next dicts.(i) k)
        D.next_key
    in
    let router =
      Lf_shard.Router.create ?next_key ~ring ~svc_config:(fun _ -> cfg)
        mk_backend
    in
    (* Replicas: every slot's copy lives one shard over, in the replica
       layer (never a shard backend), fed asynchronously from the write
       journal on the supervisor's tick. *)
    let reps =
      if not replicas then None
      else begin
        let r = Lf_shard.Replica.create () in
        for slot = 0 to shards - 1 do
          Lf_shard.Replica.add_slot r ~slot
            ~on:((Lf_shard.Hash_ring.owner ring slot + 1) mod shards)
        done;
        Lf_shard.Router.attach_replicas router r;
        Some r
      end
    in
    let sup =
      if not self_heal then None
      else
        Some
          (Lf_shard.Supervisor.create
             (Lf_shard.Supervisor.config ~clock ~poll_every:(ms 100)
                ~sick_after:2 ~healthy_after:2 ~move_budget:2
                ~backoff_base:(ms 200) ~backoff_max:(ms 2000)
                ~apply_budget:1024 ())
             ~shards)
    in
    let mon = Lf_shard.Health.monitor () in
    (* Flight-recorder anomaly triggers.  The dump is a serialization of
       rings that are already populated, so firing it from the accept
       loop costs one traversal — no steady-state overhead.  A dump that
       cannot be written is reported and the server keeps serving. *)
    let dump reason meta =
      if trace_requests then
        match Lf_obs.Flight.dump ~dir:dump_dir ~reason ~meta () with
        | Ok (path, _) ->
            Printf.printf "lfdict serve: flight dump %s (%s)\n%!" path reason
        | Error msg ->
            Printf.eprintf "lfdict serve: flight dump failed (%s): %s\n%!"
              reason msg
    in
    let burning = ref false in
    let check_anomalies () =
      if trace_requests then begin
        (* The monitor caches the last open-breaker snapshot, so a KILL
           (which pre-marks its victim and dumps its own bundle) followed
           immediately by FLIGHTDUMP or traffic cannot double-fire a
           breaker-open bundle for the same opening. *)
        let newly = Lf_shard.Health.newly_open mon router in
        if newly <> [] then
          dump "breaker-open"
            [
              ( "shards",
                String.concat "," (List.map string_of_int newly) );
            ];
        let fb = Lf_obs.Slo.fast_burn slo ~now:(now ()) in
        if fb && not !burning then dump "slo-fast-burn" [];
        burning := fb
      end
    in
    (* The supervisor rides the request path: every wire line gives it a
       chance to poll — the poll_every gate (Clock ticks, never sleeps)
       makes the extra calls free — and its heal begin/end events become
       flight bundles. *)
    let on_heal_event = function
      | Lf_shard.Supervisor.Heal_begun { e_shard; e_slot; e_to; e_via } ->
          dump "heal-begin"
            [
              ("shard", string_of_int e_shard);
              ("slot", string_of_int e_slot);
              ("to", string_of_int e_to);
              ( "via",
                match e_via with
                | Lf_shard.Supervisor.Copy -> "copy"
                | Lf_shard.Supervisor.Promote -> "promote" );
            ]
      | Lf_shard.Supervisor.Heal_ended { e_shard; e_slot; e_ok; e_moved } ->
          dump "heal-end"
            [
              ("shard", string_of_int e_shard);
              ("slot", string_of_int e_slot);
              ("ok", string_of_bool e_ok);
              ("moved", string_of_int e_moved);
            ]
    in
    let sup_tick () =
      match sup with
      | Some sup ->
          let fast_burn = Lf_obs.Slo.fast_burn slo ~now:(now ()) in
          ignore (Lf_shard.Supervisor.run_tick ~fast_burn sup router);
          List.iter on_heal_event (Lf_shard.Supervisor.events sup)
      | None -> (
          (* Replication without a supervisor still needs its async
             applier: a bounded slice per request. *)
          match reps with
          | Some r -> ignore (Lf_shard.Replica.apply ~budget:256 r)
          | None -> ())
    in
    (* One root span per wire request; ended ok iff every outcome was
       served, which is also what the SLO counts as good.  A line's
       outcomes reach the SLO in one observation at one clock read.  The
       router's optional [?ctx] is passed only while the span is live,
       so an untraced line boxes no [Some ctx]. *)
    let request_ctx name =
      if trace_requests then Lf_obs.Span.root ~name ~now:(now ())
      else Lf_obs.Span.nil
    in
    let finish ctx ~good ~bad =
      let t = now () in
      Lf_obs.Span.end_ ctx ~now:t ~ok:(bad = 0);
      Lf_obs.Slo.observe slo ~now:t ~good ~bad;
      check_anomalies ()
    in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock 8;
    Printf.printf "lfdict serve: %s on 127.0.0.1:%d\n%!" D.name port;
    (* One request batch, reused by every line: a line is parsed into it
       in place and its outcomes are written back into it, so serving a
       line allocates nothing outside the structure. *)
    let b = Lf_svc.Svc.batch Lf_svc.Wire.max_batch in
    let error oc msg =
      output_string oc (Lf_svc.Wire.format_error msg);
      output_char oc '\n'
    in
    let shutdown = ref false in
    while not !shutdown do
      let fd, _ = Unix.accept sock in
      (* A pipelining client must not wait for its delayed ACK before
         each reply after the first. *)
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let reader = Lf_svc.Reader.create (Unix.read fd) in
      let oc = Unix.out_channel_of_descr fd in
      let quit = ref false in
      (try
         while not (!quit || !shutdown) do
           (* Replies wait in the channel until no complete line is left,
              and always go out before the next read can block: a
              pipelined batch costs one write. *)
           if not (Lf_svc.Reader.has_line reader) then flush oc;
           match Lf_svc.Reader.next reader with
           | Lf_svc.Reader.Eof -> quit := true
           | Lf_svc.Reader.Too_long ->
               sup_tick ();
               error oc "line too long"
           | Lf_svc.Reader.Line -> (
               sup_tick ();
               match
                 Lf_svc.Wire.parse_into b
                   (Lf_svc.Reader.line reader)
                   (Lf_svc.Reader.first reader)
                   (Lf_svc.Reader.last reader)
               with
               | Error e -> error oc e
               | Ok Lf_svc.Wire.V_op ->
                   let ctx = request_ctx "request" in
                   let op = b.ops.(0) and k = b.keys.(0) and v = b.vals.(0) in
                   let out =
                     if Lf_obs.Span.active ctx then
                       Lf_shard.Router.call_op router ~ctx op k v
                     else Lf_shard.Router.call_op router op k v
                   in
                   let bad = if good out then 0 else 1 in
                   finish ctx ~good:(1 - bad) ~bad;
                   Lf_svc.Wire.write_outcome oc out
               | Ok Lf_svc.Wire.V_multi ->
                   let ctx = request_ctx "multi" in
                   if Lf_obs.Span.active ctx then
                     Lf_shard.Router.call_batch router ~ctx b
                   else Lf_shard.Router.call_batch router b;
                   let bad = count_bad b 0 0 in
                   finish ctx ~good:(b.len - bad) ~bad;
                   Lf_svc.Wire.write_multi oc b
               | Ok Lf_svc.Wire.V_kill ->
                   let s = b.keys.(0) in
                   if s < 0 || s >= shards then error oc "bad shard"
                   else begin
                     kills.(s) <- true;
                     (* The kill's own bundle names this shard; pre-marking
                        the monitor keeps the inevitable breaker trip from
                        firing a second, breaker-open bundle for the same
                        incident. *)
                     Lf_shard.Health.mark_open mon s;
                     output_string oc "OK true\n";
                     dump "shard-kill" [ ("shard", string_of_int s) ]
                   end
               | Ok Lf_svc.Wire.V_health ->
                   output_string oc (Lf_shard.Health.line router);
                   output_char oc '\n'
               | Ok Lf_svc.Wire.V_metrics ->
                   output_string oc
                     (Lf_obs.Prom.snapshot ()
                     ^ Lf_obs.Prom.render_metrics
                         (Lf_shard.Health.metrics router));
                   output_string oc "END\n"
               | Ok Lf_svc.Wire.V_slo ->
                   output_string oc (Lf_obs.Slo.line slo ~now:(now ()));
                   output_char oc '\n'
               | Ok Lf_svc.Wire.V_replicas -> (
                   match reps with
                   | None -> error oc "no replicas (serve with --replicas)"
                   | Some r ->
                       let rs = Lf_shard.Replica.stats r ~now:(now ()) in
                       output_string oc
                         (Printf.sprintf "REPLICAS n=%d%s" (List.length rs)
                            (String.concat ""
                               (List.map
                                  (fun (s : Lf_shard.Replica.slot_stats) ->
                                    Printf.sprintf
                                      " slot=%d on=%d lag=%d pending=%d \
                                       applied=%d"
                                      s.Lf_shard.Replica.s_slot
                                      s.Lf_shard.Replica.s_on
                                      s.Lf_shard.Replica.s_lag
                                      s.Lf_shard.Replica.s_pending
                                      s.Lf_shard.Replica.s_applied)
                                  rs)));
                       output_char oc '\n')
               | Ok Lf_svc.Wire.V_heal -> (
                   match sup with
                   | None -> error oc "no supervisor (serve with --self-heal)"
                   | Some sup ->
                       output_string oc (Lf_shard.Supervisor.line sup);
                       output_char oc '\n')
               | Ok Lf_svc.Wire.V_flightdump -> (
                   if not trace_requests then
                     error oc "tracing off (serve with --trace-requests)"
                   else
                     match
                       Lf_obs.Flight.dump ~dir:dump_dir ~reason:"manual" ()
                     with
                     | Ok (path, _) ->
                         output_string oc ("OK " ^ path);
                         output_char oc '\n'
                     | Error msg -> error oc ("flight dump failed: " ^ msg))
               | Ok Lf_svc.Wire.V_quit -> quit := true
               | Ok Lf_svc.Wire.V_shutdown ->
                   output_string oc "OK true\n";
                   shutdown := true)
         done;
         flush oc
       with Sys_error _ | Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    done;
    Unix.close sock
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve an implementation over a line-protocol TCP socket: a \
          consistent-hash router over --shards instances (1 by default), \
          each behind the lib/svc robustness pipeline (deadlines, retry \
          budgets, load shedding, circuit breaking), with optional end-to-end \
          request tracing, SLO burn tracking and an anomaly-triggered \
          flight recorder (--trace-requests), lagged read replicas with \
          an explicit staleness contract (--replicas), and a \
          self-healing shard supervisor (--self-heal).  Protocol: PUT k \
          v / DEL k / GET k / MGET k.. / MSET k v.. / KILL i / HEALTH / \
          METRICS / SLO / REPLICAS / HEAL / FLIGHTDUMP / QUIT / \
          SHUTDOWN, one per line.")
    Term.(
      const run $ impl_arg $ port_arg $ deadline_ms_arg $ retry_arg
      $ retry_budget_arg $ shed_arg $ breaker_flag $ shards_arg
      $ trace_requests_flag $ dump_dir_arg $ self_heal_flag $ replicas_flag)

let call_cmd =
  let lines_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"LINE" ~doc:"Protocol lines, e.g. 'PUT 1 2'.")
  in
  let connect_retries_arg =
    Arg.(
      value & opt int 20
      & info [ "connect-retries" ] ~docv:"N"
          ~doc:"Connection attempts, 250ms apart (CI starts the server \
                in the background).")
  in
  let run port retries lines =
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
    let rec connect attempt =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.connect sock addr;
        sock
      with Unix.Unix_error _ when attempt < retries ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        Unix.sleepf 0.25;
        connect (attempt + 1)
    in
    let sock = connect 0 in
    let ic = Unix.in_channel_of_descr sock in
    let oc = Unix.out_channel_of_descr sock in
    let read_one () =
      match input_line ic with
      | l -> print_endline l
      | exception End_of_file ->
          prerr_endline "connection closed";
          exit 1
    in
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc;
        match Lf_svc.Wire.parse line with
        | Ok Lf_svc.Wire.Metrics ->
            let rec drain () =
              match input_line ic with
              | "END" -> print_endline "END"
              | l ->
                  print_endline l;
                  drain ()
              | exception End_of_file -> ()
            in
            drain ()
        | Ok Lf_svc.Wire.Quit -> ()
        | _ -> read_one ())
      lines;
    try Unix.close sock with Unix.Unix_error _ -> ()
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send protocol lines to a running $(b,lfdict serve) and print the \
          responses (a tiny client for smoke tests and CI).")
    Term.(const run $ port_arg $ connect_retries_arg $ lines_arg)

let flightdump_cmd =
  let run port =
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect sock addr
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "connect failed: %s\n" (Unix.error_message e);
       exit 1);
    let ic = Unix.in_channel_of_descr sock in
    let oc = Unix.out_channel_of_descr sock in
    output_string oc "FLIGHTDUMP\n";
    flush oc;
    (match input_line ic with
    | line ->
        print_endline line;
        if String.length line >= 3 && String.sub line 0 3 = "ERR" then exit 1
    | exception End_of_file ->
        prerr_endline "connection closed";
        exit 1);
    try Unix.close sock with Unix.Unix_error _ -> ()
  in
  Cmd.v
    (Cmd.info "flightdump"
       ~doc:
         "Ask a running $(b,lfdict serve --trace-requests) to dump its \
          flight recorder; prints $(b,OK <path>) on success.")
    Term.(const run $ port_arg)

let () =
  let info =
    Cmd.info "lfdict" ~version:"1.0"
      ~doc:"Lock-free linked lists and skip lists (Fomitchev-Ruppert, PODC'04)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            throughput_cmd;
            check_cmd;
            chaos_cmd;
            trace_cmd;
            metrics_cmd;
            model_cmd;
            serve_cmd;
            call_cmd;
            flightdump_cmd;
            list_cmd;
          ]))
