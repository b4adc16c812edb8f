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
     dune exec bin/lfdict.exe -- throughput -i lf-hashtable --batch 64
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

(* --batch n routes the op stream through the batched entry points
   (insert_batch / delete_batch / mem_batch), n operations per chunk. *)
let batched_impls ~hints :
    (string * (module Lf_workload.Runner.INT_DICT_BATCHED)) list =
  if hints then
    [
      ("fr-list", (module Lf_list.Fr_list.Atomic_int));
      ("fr-skiplist", (module Lf_skiplist.Fr_skiplist.Atomic_int));
      ("lf-hashtable", (module Lf_hashtable.Atomic_int));
    ]
  else
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
          "Issue operations through the batched entry points, $(docv) per \
           chunk (0 = one at a time; fr-list, fr-skiplist, lf-hashtable).")

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
        let (module D : Lf_workload.Runner.INT_DICT_BATCHED) =
          match List.assoc_opt impl (batched_impls ~hints) with
          | Some m -> m
          | None ->
              Printf.eprintf "--batch%s is available for: %s\n"
                (if hints then "" else " --hints off")
                (String.concat ", " (List.map fst (batched_impls ~hints)));
              exit 2
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

let chaos_ops impl : (int -> bool) * (int -> bool) * (int -> bool) =
  match impl with
  | "fr-list" ->
      let t = Faulty_fr_list.create () in
      ( (fun k -> Faulty_fr_list.insert t k k),
        (fun k -> Faulty_fr_list.delete t k),
        fun k -> Faulty_fr_list.mem t k )
  | "fr-skiplist" ->
      let t = Faulty_fr_skiplist.create () in
      ( (fun k -> Faulty_fr_skiplist.insert t k k),
        (fun k -> Faulty_fr_skiplist.delete t k),
        fun k -> Faulty_fr_skiplist.mem t k )
  | "harris-list" ->
      let t = Faulty_harris.create () in
      ( (fun k -> Faulty_harris.insert t k k),
        (fun k -> Faulty_harris.delete t k),
        fun k -> Faulty_harris.mem t k )
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
    let insert, delete, find = chaos_ops impl in
    Faulty_mem.install plan;
    let r =
      Lf_workload.Runner.run_chaos ~budget_s:budget ~window_s:window
        ~sample:(fun () ->
          [ ("injected", List.length (Faulty_mem.injected ())) ])
        ~name:impl ~insert ~delete ~find ~domains ~key_range:range ~mix ~seed
        ()
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

let sim_traced_ops impl : Lf_workload.Sim_driver.ops =
  match impl with
  | "fr-list" ->
      let t = Sim_fr_list.create () in
      {
        insert = (fun k -> Sim_fr_list.insert t k k);
        delete = (fun k -> Sim_fr_list.delete t k);
        find = (fun k -> Sim_fr_list.mem t k);
      }
  | "fr-skiplist" ->
      let t = Sim_fr_skiplist.create () in
      {
        insert = (fun k -> Sim_fr_skiplist.insert t k k);
        delete = (fun k -> Sim_fr_skiplist.delete t k);
        find = (fun k -> Sim_fr_skiplist.mem t k);
      }
  | "lf-hashtable" ->
      let t = Sim_hashtable.create () in
      {
        insert = (fun k -> Sim_hashtable.insert t k k);
        delete = (fun k -> Sim_hashtable.delete t k);
        find = (fun k -> Sim_hashtable.mem t k);
      }
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
(* serve / call: a minimal line-protocol TCP front over the service
   layer (lib/svc).  One request per line (PUT/DEL/GET/HEALTH/METRICS/
   QUIT/SHUTDOWN — see Lf_svc.Wire); every operation runs through the
   Svc pipeline, so deadlines, retry budgets, shedding and the breaker
   are all live behind the socket.  Sequential accept loop: this is the
   demo front for EXP-20 and the CI smoke, not a production server. *)

(* Wrap an implementation as Svc closures, with recorder spans around
   each operation so METRICS (the PR 4 Prometheus snapshot) has live
   operation counters and latency quantiles to report. *)
let svc_ops (module D : Lf_workload.Runner.INT_DICT) : Lf_svc.Svc.ops =
  let t = D.create () in
  let span op key f =
    Lf_obs.Recorder.span_begin ~op ~key;
    let ok = f () in
    Lf_obs.Recorder.span_end ~op ~ok;
    ok
  in
  {
    insert =
      (fun k v -> span Lf_obs.Obs_event.Insert k (fun () -> D.insert t k v));
    delete = (fun k -> span Lf_obs.Obs_event.Delete k (fun () -> D.delete t k));
    find =
      (fun k ->
        span Lf_obs.Obs_event.Find k (fun () -> Option.is_some (D.find t k)));
  }

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
           shard $(i,i)'s backend fail (containment demo).  1 = the \
           plain single-instance server.")

let trace_requests_flag =
  Arg.(
    value & flag
    & info [ "trace-requests" ]
        ~doc:
          "End-to-end request tracing: every request runs under a causal \
           span tree (router fan-out, pipeline decisions, structure ops, \
           failed C&S attribution), the flight recorder retains completed \
           trees per domain, METRICS carries tail exemplars, and \
           anomalies (KILL, a breaker opening, SLO fast burn) dump a \
           trace bundle into --dump-dir.")

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
           Requires --shards > 1.")

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

let key_range_arg =
  Arg.(
    value & opt int 4096
    & info [ "key-range" ] ~docv:"N"
        ~doc:
          "Keyspace bound scanned by healing migrations: an evacuation \
           moves the keys in [0, $(docv)) that hash to the slot (same \
           contract as Router.rebalance).  Keys outside the bound are \
           still served and replicated, but not migrated.")

let serve_cmd =
  let run impl port deadline_ms retry budget shed breaker shards trace_requests
      dump_dir self_heal replicas key_range =
    Lf_obs.Recorder.set_level Lf_obs.Recorder.Off;
    Lf_obs.Recorder.reset ();
    Lf_obs.Recorder.set_clock Lf_obs.Recorder.Real;
    Lf_obs.Recorder.set_level Lf_obs.Recorder.Histograms;
    let (module D : Lf_workload.Runner.INT_DICT) =
      resolve impl false ~hints:true
    in
    let clock = Lf_svc.Clock.real () in
    let ms = Lf_svc.Clock.ms clock in
    let now () = Lf_svc.Clock.now clock in
    (* Tracing: the request spans and the recorder's structure-op spans
       must tick off the SAME clock, or op spans would not nest inside
       their request spans — align the recorder to the pipeline clock. *)
    if trace_requests then begin
      Lf_obs.Span.reset ();
      Lf_obs.Span.set_level Lf_obs.Span.Spans;
      Lf_obs.Recorder.set_clock (Lf_obs.Recorder.Manual now)
    end;
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
    (* Two server shapes behind one dispatch: the single-instance
       pipeline (unchanged), or --shards N instances behind the
       consistent-hash router, each with its own pipeline built from
       the same flags.  KILL flips a per-shard switch that makes that
       backend raise — the containment demo for the CI smoke: the
       victim's breaker trips and HEALTH turns "s<i>=degraded" while
       the other shards keep answering.  The accept loop is
       sequential, so plain bool switches suffice. *)
    if (self_heal || replicas) && shards <= 1 then begin
      prerr_endline "lfdict serve: --self-heal/--replicas need --shards > 1";
      exit 2
    end;
    let op_h, multi_h, health_h, metrics_h, kill_h, newly_open_h, replicas_h,
        heal_h, tick_raw =
      if shards <= 1 then
        let svc = Lf_svc.Svc.create cfg (svc_ops (module D)) in
        ( (fun ctx req -> Lf_svc.Svc.call svc ~ctx req),
          (fun ctx reqs -> Lf_svc.Svc.call_many svc ~ctx reqs),
          (fun () -> Lf_svc.Wire.health_line (Lf_svc.Svc.stats svc)),
          (fun () -> Lf_obs.Prom.snapshot ()),
          (fun _ -> Lf_svc.Wire.format_error "no shards (serve with --shards)"),
          (let prev = ref false in
           fun () ->
             let open_ =
               match (Lf_svc.Svc.stats svc).breaker with
               | Some b when b <> "closed" -> true
               | Some _ | None -> false
             in
             let fresh = open_ && not !prev in
             prev := open_;
             if fresh then [ 0 ] else []),
          (fun () ->
            Lf_svc.Wire.format_error "no replicas (serve with --replicas)"),
          (fun () ->
            Lf_svc.Wire.format_error "no supervisor (serve with --self-heal)"),
          fun () -> [] )
      else begin
        let kills = Array.make shards false in
        let mk_backend i : Lf_shard.Router.backend =
          let t = D.create () in
          let guard f = if kills.(i) then failwith "shard killed" else f () in
          let span op key ok f =
            Lf_obs.Recorder.span_begin ~op ~key;
            let r = f () in
            Lf_obs.Recorder.span_end ~op ~ok:(ok r);
            r
          in
          {
            Lf_shard.Router.insert =
              (fun k v ->
                guard (fun () ->
                    span Lf_obs.Obs_event.Insert k Fun.id (fun () ->
                        D.insert t k v)));
            delete =
              (fun k ->
                guard (fun () ->
                    span Lf_obs.Obs_event.Delete k Fun.id (fun () ->
                        D.delete t k)));
            find =
              (fun k ->
                guard (fun () ->
                    span Lf_obs.Obs_event.Find k Option.is_some (fun () ->
                        D.find t k)));
            batched = None;
          }
        in
        let ring = Lf_shard.Hash_ring.create ~seed:1 ~shards () in
        let router =
          Lf_shard.Router.create ~ring ~svc_config:(fun _ -> cfg) mk_backend
        in
        (* Replicas: every slot's copy lives one shard over, in a store
           private to the replica layer (never a shard backend), fed
           asynchronously from the write journal on the supervisor's
           tick. *)
        let reps =
          if not replicas then None
          else begin
            let r = Lf_shard.Replica.create () in
            for slot = 0 to shards - 1 do
              let copy = D.create () in
              Lf_shard.Replica.add_slot r ~slot
                ~on:((Lf_shard.Hash_ring.owner ring slot + 1) mod shards)
                ~store:
                  {
                    Lf_shard.Replica.r_insert = (fun k v -> D.insert copy k v);
                    r_delete = (fun k -> D.delete copy k);
                    r_find = (fun k -> D.find copy k);
                  }
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
                    ~apply_budget:1024 ~key_range ())
                 ~shards)
        in
        let mon = Lf_shard.Health.monitor () in
        ( (fun ctx req -> Lf_shard.Router.call router ~ctx req),
          (fun ctx reqs -> Lf_shard.Router.call_many router ~ctx reqs),
          (fun () -> Lf_shard.Health.line router),
          (fun () ->
            let shard_of k = string_of_int (Lf_shard.Router.route router k) in
            Lf_obs.Prom.snapshot ()
            ^ Lf_obs.Prom.render_metrics
                (Lf_shard.Health.metrics router
                @ [
                    {
                      Lf_obs.Prom.m_name = "lf_shard_cas_failures_total";
                      m_help =
                        "Keyed C&S failures attributed to the owning shard";
                      m_type = "counter";
                      m_samples =
                        List.map
                          (fun (g, n) ->
                            ([ ("shard", g) ], float_of_int n))
                          (Lf_obs.Profile.by_group ~group:shard_of
                             (Lf_obs.Recorder.profile ()));
                    };
                  ])),
          (fun s ->
            if s < 0 || s >= shards then Lf_svc.Wire.format_error "bad shard"
            else begin
              kills.(s) <- true;
              (* The kill's own bundle names this shard; pre-marking the
                 monitor keeps the inevitable breaker trip from firing a
                 second, breaker-open bundle for the same incident. *)
              Lf_shard.Health.mark_open mon s;
              "OK true"
            end),
          (fun () -> Lf_shard.Health.newly_open mon router),
          (fun () ->
            match reps with
            | None ->
                Lf_svc.Wire.format_error "no replicas (serve with --replicas)"
            | Some r ->
                let rs = Lf_shard.Replica.stats r ~now:(now ()) in
                Printf.sprintf "REPLICAS n=%d%s" (List.length rs)
                  (String.concat ""
                     (List.map
                        (fun (s : Lf_shard.Replica.slot_stats) ->
                          Printf.sprintf
                            " slot=%d on=%d lag=%d pending=%d applied=%d"
                            s.Lf_shard.Replica.s_slot s.Lf_shard.Replica.s_on
                            s.Lf_shard.Replica.s_lag
                            s.Lf_shard.Replica.s_pending
                            s.Lf_shard.Replica.s_applied)
                        rs))),
          (fun () ->
            match sup with
            | None ->
                Lf_svc.Wire.format_error "no supervisor (serve with --self-heal)"
            | Some sup -> Lf_shard.Supervisor.line sup),
          fun () ->
            match sup with
            | Some sup ->
                let fast_burn = Lf_obs.Slo.fast_burn slo ~now:(now ()) in
                ignore (Lf_shard.Supervisor.run_tick ~fast_burn sup router);
                Lf_shard.Supervisor.events sup
            | None ->
                (* Replication without a supervisor still needs its
                   async applier: a bounded slice per request. *)
                (match reps with
                | Some r -> ignore (Lf_shard.Replica.apply ~budget:256 r)
                | None -> ());
                [] )
      end
    in
    (* Flight-recorder anomaly triggers.  The dump is a serialization of
       rings that are already populated, so firing it from the accept
       loop costs one traversal — no steady-state overhead. *)
    let dump reason meta =
      if trace_requests then begin
        let path, _ = Lf_obs.Flight.dump ~dir:dump_dir ~reason ~meta () in
        Printf.printf "lfdict serve: flight dump %s (%s)\n%!" path reason
      end
    in
    let burning = ref false in
    let check_anomalies () =
      if trace_requests then begin
        (* The monitor caches the last open-breaker snapshot, so a KILL
           (which pre-marks its victim and dumps its own bundle) followed
           immediately by FLIGHTDUMP or traffic cannot double-fire a
           breaker-open bundle for the same opening. *)
        let newly = newly_open_h () in
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
    let sup_tick () =
      List.iter
        (function
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
          | Lf_shard.Supervisor.Heal_ended { e_shard; e_slot; e_ok; e_moved }
            ->
              dump "heal-end"
                [
                  ("shard", string_of_int e_shard);
                  ("slot", string_of_int e_slot);
                  ("ok", string_of_bool e_ok);
                  ("moved", string_of_int e_moved);
                ])
        (tick_raw ())
    in
    (* A stale answer is still an answered read: the SLO counts served,
       fresh or lag-tagged — the staleness contract is the wire token's
       job, the burn rate's job is "did we answer". *)
    let good = function
      | Lf_svc.Svc.Served _ | Lf_svc.Svc.Served_stale _ -> true
      | Lf_svc.Svc.Rejected _ | Lf_svc.Svc.Failed _ -> false
    in
    (* One root span per wire request; ended ok iff every outcome was
       served, which is also what the SLO counts as good. *)
    let traced name f =
      let ctx =
        if trace_requests then Lf_obs.Span.root ~name ~now:(now ())
        else Lf_obs.Span.nil
      in
      let outcomes = f ctx in
      let ok = List.for_all good outcomes in
      Lf_obs.Span.end_ ctx ~now:(now ()) ~ok;
      List.iter (fun o -> Lf_obs.Slo.observe slo ~now:(now ()) ~good:(good o))
        outcomes;
      check_anomalies ();
      outcomes
    in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock 8;
    Printf.printf "lfdict serve: %s on 127.0.0.1:%d\n%!" D.name port;
    let shutdown = ref false in
    while not !shutdown do
      let fd, _ = Unix.accept sock in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let quit = ref false in
      (try
         while not (!quit || !shutdown) do
           match input_line ic with
           | exception End_of_file -> quit := true
           | line ->
               sup_tick ();
               (match Lf_svc.Wire.parse line with
               | Error e ->
                   output_string oc (Lf_svc.Wire.format_error e);
                   output_char oc '\n'
               | Ok (Lf_svc.Wire.Op req) ->
                   let out =
                     match traced "request" (fun ctx -> [ op_h ctx req ]) with
                     | [ o ] -> o
                     | _ -> assert false
                   in
                   output_string oc (Lf_svc.Wire.format_outcome out);
                   output_char oc '\n'
               | Ok (Lf_svc.Wire.Multi reqs) ->
                   let outs = traced "multi" (fun ctx -> multi_h ctx reqs) in
                   output_string oc (Lf_svc.Wire.format_multi outs);
                   output_char oc '\n'
               | Ok (Lf_svc.Wire.Kill s) ->
                   let resp = kill_h s in
                   output_string oc resp;
                   output_char oc '\n';
                   if resp = "OK true" then
                     dump "shard-kill" [ ("shard", string_of_int s) ]
               | Ok Lf_svc.Wire.Health ->
                   output_string oc (health_h ());
                   output_char oc '\n'
               | Ok Lf_svc.Wire.Metrics ->
                   output_string oc (metrics_h ());
                   output_string oc "END\n"
               | Ok Lf_svc.Wire.Slo ->
                   output_string oc (Lf_obs.Slo.line slo ~now:(now ()));
                   output_char oc '\n'
               | Ok Lf_svc.Wire.Replicas ->
                   output_string oc (replicas_h ());
                   output_char oc '\n'
               | Ok Lf_svc.Wire.Heal ->
                   output_string oc (heal_h ());
                   output_char oc '\n'
               | Ok Lf_svc.Wire.Flightdump ->
                   (if not trace_requests then
                      output_string oc
                        (Lf_svc.Wire.format_error
                           "tracing off (serve with --trace-requests)")
                    else
                      let path, _ =
                        Lf_obs.Flight.dump ~dir:dump_dir ~reason:"manual" ()
                      in
                      output_string oc ("OK " ^ path));
                   output_char oc '\n'
               | Ok Lf_svc.Wire.Quit -> quit := true
               | Ok Lf_svc.Wire.Shutdown ->
                   output_string oc "OK true\n";
                   shutdown := true);
               flush oc
         done
       with Sys_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    done;
    Unix.close sock
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve an implementation over a line-protocol TCP socket, behind \
          the lib/svc robustness pipeline (deadlines, retry budgets, load \
          shedding, circuit breaking), optionally sharded behind a \
          consistent-hash router (--shards), with optional end-to-end \
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
      $ trace_requests_flag $ dump_dir_arg $ self_heal_flag $ replicas_flag
      $ key_range_arg)

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
