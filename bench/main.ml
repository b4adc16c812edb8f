(* Benchmark harness entry point.

   Runs every experiment of EXPERIMENTS.md (the measurable claims of the
   paper plus the design-choice ablations from DESIGN.md) and prints one
   table per experiment.  `main.exe <name>...` runs a subset, e.g.
   `dune exec bench/main.exe -- exp2 exp3`.

   Flags:
     --json [dir]   also write machine-readable BENCH_<exp>.json per
                    experiment into dir (default bench/results, created
                    if absent)
     --quick        smaller op counts (CI smoke); rows written by --json
                    carry "quick": true so they are not mistaken for full
                    measurements *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("figs", "Fig 1/2 deletion protocol traces", fun () -> Figs.run ());
    ("exp1", "amortized bound O(n(S)+c(S))", fun () -> ignore (Exp1.run ()));
    ("exp2", "Sec 3.1 adversary: Harris vs FR", fun () -> ignore (Exp2.run ()));
    ("exp3", "Valois Omega(m) execution", fun () -> ignore (Exp3.run ()));
    ("exp4", "linked-list throughput", fun () -> Exp4.run ());
    ("exp5", "skip-list throughput", fun () -> Exp5.run ());
    ("exp6", "search cost O(log n) vs O(n)", fun () -> ignore (Exp6.run ()));
    ("exp7", "tower heights + incomplete towers", fun () -> ignore (Exp7.run ()));
    ("exp8", "flag-bit ablation", fun () -> ignore (Exp8.run ()));
    ("exp9", "superfluous-helping ablation", fun () -> ignore (Exp9.run ()));
    ("exp10", "linearizability battery", fun () -> ignore (Exp10.run ()));
    ("exp11", "hash table on list buckets", fun () -> Exp11.run ());
    ("exp12", "priority queue vs locked heap", fun () -> Exp12.run ());
    ("exp13", "skip-list adversary: FR vs Fraser", fun () -> ignore (Exp13.run ()));
    ("exp14", "cost model: sim vs real domains", fun () -> ignore (Exp14.run ()));
    ("exp15", "skip-list recovery classes", fun () -> Exp15.run ());
    ("exp16", "protocol-sanitizer overhead", fun () -> ignore (Exp16.run ()));
    ("exp17", "hint-guided searches + batches", fun () -> ignore (Exp17.run ()));
    ("exp18", "graceful degradation under faults", fun () -> ignore (Exp18.run ()));
    ("exp19", "observability overhead + contention", fun () -> ignore (Exp19.run ()));
    ("exp20", "overload robustness: svc pipeline", fun () -> ignore (Exp20.run ()));
    ("exp21", "DPOR vs CHESS schedule counts", fun () -> ignore (Exp21.run ()));
    ("exp23", "sharded service: containment + scaling", fun () ->
      ignore (Exp23.run ()));
    ("exp24", "request tracing: overhead + tail attribution + flight recorder",
      fun () -> ignore (Exp24.run ()));
    ("exp25", "self-healing shards: time-to-recovery + staleness",
      fun () -> ignore (Exp25.run ()));
    ("micro", "bechamel per-op latency", fun () -> Bechamel_suite.run ());
  ]

let () =
  (* Flags may appear anywhere among the experiment names. *)
  let is_experiment n = List.exists (fun (e, _, _) -> e = n) experiments in
  let rec parse_flags acc = function
    (* The directory is optional: a following token that is itself a flag
       or an experiment name means "use the default". *)
    | "--json" :: dir :: rest
      when (not (String.length dir >= 2 && String.sub dir 0 2 = "--"))
           && not (is_experiment dir) ->
        Bench_json.dir := Some dir;
        parse_flags acc rest
    | "--json" :: rest ->
        Bench_json.dir := Some Bench_json.default_dir;
        parse_flags acc rest
    | "--quick" :: rest ->
        Bench_json.quick := true;
        parse_flags acc rest
    | name :: rest -> parse_flags (name :: acc) rest
    | [] -> List.rev acc
  in
  let requested =
    match parse_flags [] (List.tl (Array.to_list Sys.argv)) with
    | _ :: _ as names -> names
    | [] -> List.map (fun (n, _, _) -> n) experiments
  in
  let t0 = Lf_obs.Clock.(now Real) in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, _, f) -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available:\n" name;
          List.iter
            (fun (n, d, _) -> Printf.eprintf "  %-6s %s\n" n d)
            experiments;
          exit 2)
    requested;
  Bench_json.flush_all ();
  Printf.printf "\nAll requested experiments completed in %.1fs.\n"
    (float_of_int (Lf_obs.Clock.(now Real) - t0) /. 1e9)
