(* EXP-17: hint-guided searches (per-domain predecessor caches, DESIGN.md).

   The FR search lemma (Sec 3.2 discussion) lets a search start at any
   validated unmarked node with key <= target instead of the head.  This
   experiment quantifies the payoff of the per-domain hint caches in three
   parts:

   Part A (simulator): mean essential steps per operation on the FR list,
   hints on vs off, under four key distributions - uniform, hotspot (hot
   window parked mid-keyspace so wins cannot come from hot keys sitting
   next to the head), zipf, and global ascending inserts.  PASS: hints on
   improves steps/op by >= 1.5x for hotspot and ascending; uniform
   regression <= 5%.

   Part B (wall-clock, Atomic_mem): throughput of the list with hints
   on/off.  Numbers measure overhead/locality, not parallel speedup.

   Part C (wall-clock): the list's batched entry points (insert_batch/
   delete_batch/mem_batch) vs one-at-a-time.  Only the list is measured:
   its batches are key-sorted and carry the predecessor element to
   element, the one batch that pays (EXPERIMENTS.md, EXP-17 Part C). *)

open Lf_workload

module K = Lf_kernel.Ordered.Int
module SimL = Lf_list.Fr_list.Make (K) (Lf_dsim.Sim_mem)

let insert_only = { Opgen.insert_pct = 100; delete_pct = 0 }

(* ------------------------------------------------------------------ *)
(* Part A: essential steps per op in the simulator.                    *)

type sim_case = {
  workload : string;
  ops_per_proc : int;  (* quick mode divides by 4 *)
  key_range : int;
  prefill : int;
  mix : Opgen.mix;
  keygen : unit -> int -> Keygen.t;  (* fresh factory per run *)
}

let hot_of range = Keygen.hotspot ~base:(range / 2) ~range ~hot:32 ~hot_pct:90

let sim_cases ~key_range ~prefill ~ops =
  [
    {
      workload = "uniform";
      ops_per_proc = ops;
      key_range;
      prefill;
      mix = Opgen.mixed;
      keygen = (fun () _pid -> Keygen.uniform key_range);
    };
    {
      workload = "hotspot";
      ops_per_proc = ops;
      key_range;
      prefill;
      mix = Opgen.mixed;
      keygen = (fun () _pid -> hot_of key_range ());
    };
    {
      workload = "zipf";
      ops_per_proc = ops;
      key_range;
      prefill;
      mix = Opgen.mixed;
      keygen = (fun () _pid -> Keygen.zipf ~range:key_range ~theta:0.9);
    };
    {
      (* Global ascending inserts: one shared generator, empty start. *)
      workload = "ascending";
      ops_per_proc = max 1 (ops / 2);
      key_range = 1;
      prefill = 0;
      mix = insert_only;
      keygen =
        (fun () ->
          let g = Keygen.ascending () in
          fun _pid -> g);
    };
  ]

type sim_run = {
  steps_per_op : float;
  n_ops : int;
  stats : Lf_kernel.Hint.stats option;
}

let run_sim ~use_hints c : sim_run =
  let t = SimL.create_with ~use_hints ~use_flags:true () in
  let module D = Dict.Of (SimL) in
  let ops = D.make t in
  let filled =
    if c.prefill = 0 then 0
    else Sim_driver.prefill ~key_range:c.key_range ~count:c.prefill ~seed:11 ops
  in
  let quick = if !Bench_json.quick then 4 else 1 in
  let res =
    Sim_driver.run_mixed
      ~policy:(Lf_dsim.Sim.Random 5)
      ~initial_size:filled
      ~keygen:(c.keygen ())
      ~procs:4
      ~ops_per_proc:(max 1 (c.ops_per_proc / quick))
      ~key_range:c.key_range ~mix:c.mix ~seed:17 ops
  in
  let n_ops = List.length res.ops in
  {
    steps_per_op =
      float_of_int (Lf_dsim.Sim.total_essential res) /. float_of_int n_ops;
    n_ops;
    stats = SimL.hint_stats t;
  }

let part_a () =
  Tables.subsection
    "Part A: essential steps/op in the simulator (fr-list, 4 procs, hints off \
     vs on)";
  let widths = [ 10; 8; 10; 10; 8; 22 ] in
  Tables.row widths
    [ "workload"; "ops"; "off"; "on"; "ratio"; "hits/stale/miss" ];
  let failures = ref [] in
  List.iter
    (fun c ->
      let off = run_sim ~use_hints:false c in
      let on = run_sim ~use_hints:true c in
      let ratio = off.steps_per_op /. on.steps_per_op in
      let hs =
        match on.stats with
        | None -> "-"
        | Some s ->
            Printf.sprintf "%d/%d/%d" s.Lf_kernel.Hint.hits s.stale s.misses
      in
      Tables.row widths
        [
          c.workload;
          string_of_int on.n_ops;
          Printf.sprintf "%.1f" off.steps_per_op;
          Printf.sprintf "%.1f" on.steps_per_op;
          Printf.sprintf "%.2fx" ratio;
          hs;
        ];
      (match c.workload with
      | "hotspot" | "ascending" ->
          if ratio < 1.5 then
            failures :=
              Printf.sprintf "%s ratio %.2f < 1.5" c.workload ratio
              :: !failures
      | "uniform" ->
          if ratio < 0.95 then
            failures :=
              Printf.sprintf "uniform regression %.2f > 5%%"
                ((1.0 -. ratio) *. 100.)
              :: !failures
      | _ -> ());
      List.iter
        (fun (hints, (r : sim_run)) ->
          let stats_fields =
            match r.stats with
            | None -> []
            | Some s ->
                Bench_json.
                  [
                    ("hits", I s.Lf_kernel.Hint.hits);
                    ("stale", I s.stale);
                    ("misses", I s.misses);
                    ("stores", I s.stores);
                  ]
          in
          Bench_json.emit_part ~exp:"exp17" ~part:"sim_steps"
            (Bench_json.
               [
                 ("structure", S "fr-list");
                 ("workload", S c.workload);
                 ("hints", B hints);
                 ("ops", I r.n_ops);
                 ("essential_per_op", F r.steps_per_op);
               ]
            @ stats_fields))
        [ (false, off); (true, on) ];
      Bench_json.emit_part ~exp:"exp17" ~part:"sim_ratio"
        Bench_json.
          [
            ("structure", S "fr-list");
            ("workload", S c.workload);
            ("off_over_on", F ratio);
          ])
    (sim_cases ~key_range:512 ~prefill:256 ~ops:600);
  print_newline ();
  !failures

(* ------------------------------------------------------------------ *)
(* Part B: wall-clock, Atomic_mem, hints on vs off.                    *)

module L_on = Lf_list.Fr_list.Atomic_int

module L_off = struct
  include Lf_list.Fr_list.Atomic_int

  let name = "fr-list(-h)"
  let create () = create_with ~use_hints:false ~use_flags:true ()
end

let part_b () =
  Tables.subsection "Part B: wall-clock throughput, hints on vs off (kops/s)";
  let widths = [ 16; 10; 6; 4; 10 ] in
  Tables.row widths [ "impl"; "workload"; "range"; "dom"; "kops/s" ];
  let ops = if !Bench_json.quick then 2_000 else 30_000 in
  List.iter
    (fun (workload, keygen) ->
      List.iter
        (fun (module D : Runner.INT_DICT) ->
          List.iter
            (fun domains ->
              let r =
                Runner.run_throughput ~keygen
                  (module D)
                  ~domains ~ops_per_domain:ops ~key_range:1024
                  ~mix:Opgen.mixed ~seed:44 ()
              in
              Tables.row widths
                [
                  r.impl;
                  workload;
                  "1024";
                  string_of_int domains;
                  Printf.sprintf "%.0f" (r.ops_per_s /. 1000.);
                ];
              Bench_json.emit_part ~exp:"exp17" ~part:"wallclock"
                Bench_json.
                  [
                    ("impl", S r.impl);
                    ("workload", S workload);
                    ("domains", I domains);
                    ("kops_per_s", F (r.ops_per_s /. 1000.));
                  ])
            [ 1; 2 ])
        [ (module L_off : Runner.INT_DICT); (module L_on) ];
      print_newline ())
    [
      ("uniform", fun _did -> Keygen.uniform 1024);
      ("hotspot", fun _did -> hot_of 1024 ());
    ]

(* ------------------------------------------------------------------ *)
(* Part C: batched vs one-at-a-time entry points.                      *)

let part_c () =
  Tables.subsection "Part C: batched vs unbatched throughput (kops/s)";
  let widths = [ 16; 10; 6; 4; 10 ] in
  Tables.row widths [ "impl"; "batch"; "range"; "dom"; "kops/s" ];
  let ops = if !Bench_json.quick then 2_000 else 20_000 in
  let module D = Lf_list.Fr_list.Atomic_int in
  List.iter
    (fun domains ->
      List.iter
        (fun batch ->
          let r =
            if batch = 1 then
              Runner.run_throughput
                (module D)
                ~domains ~ops_per_domain:ops ~key_range:1024
                ~mix:Opgen.write_heavy ~seed:45 ()
            else
              Runner.run_throughput_batched
                (module D)
                ~domains ~ops_per_domain:ops ~batch ~key_range:1024
                ~mix:Opgen.write_heavy ~seed:45 ()
          in
          Tables.row widths
            [
              r.impl;
              (if batch = 1 then "unbatched" else string_of_int batch);
              "1024";
              string_of_int domains;
              Printf.sprintf "%.0f" (r.ops_per_s /. 1000.);
            ];
          Bench_json.emit_part ~exp:"exp17" ~part:"batch"
            Bench_json.
              [
                ("impl", S r.impl);
                ("batch", I batch);
                ("domains", I domains);
                ("kops_per_s", F (r.ops_per_s /. 1000.));
              ])
        [ 1; 16; 64 ])
    [ 1; 2 ];
  print_newline ()

let run () =
  Tables.section
    "EXP-17  Hint-guided searches: per-domain predecessor caches + batches";
  let failures = part_a () in
  part_b ();
  part_c ();
  (match failures with
  | [] ->
      Tables.note
        "PASS: hotspot/ascending >= 1.5x steps/op win, uniform within 5%%."
  | fs ->
      List.iter (fun f -> Tables.note "FAIL: %s" f) fs;
      Tables.note "acceptance criteria NOT met (see rows above)");
  Tables.note
    "Hint wins come from locality; uniform keys see little reuse (caveat in";
  Tables.note "EXPERIMENTS.md).";
  failures = []
