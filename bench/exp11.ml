(* EXP-11: hash table with list-based buckets (Michael [8], built here on
   Fomitchev-Ruppert buckets).

   Two shapes are reported:
   (a) wall-clock throughput vs the flat list and the skip list - the
       bucket array turns O(n) searches into O(n/buckets);
   (b) simulator step counts vs bucket count, showing the per-op cost
       scaling as n/buckets (the point of [8]'s design). *)

module HS = Lf_hashtable.Make (Lf_hashtable.Int_key) (Lf_dsim.Sim_mem)
module Sim = Lf_dsim.Sim

let throughput_part () =
  Tables.subsection "(a) wall-clock throughput (2 domains, 20i/20d/60s)";
  let widths = [ 16; 8; 12 ] in
  Tables.row widths [ "impl"; "range"; "kops/s" ];
  List.iter
    (fun key_range ->
      List.iter
        (fun (module D : Lf_workload.Runner.INT_DICT) ->
          let r =
            Lf_workload.Runner.run_throughput
              (module D)
              ~domains:2 ~ops_per_domain:20_000 ~key_range
              ~mix:Lf_workload.Opgen.mixed ~seed:7 ()
          in
          Bench_json.emit_part ~exp:"exp11" ~part:"throughput"
            Bench_json.
              [
                ("impl", S r.impl);
                ("key_range", I key_range);
                ("ops_per_s", F r.ops_per_s);
              ];
          Tables.row widths
            [
              r.impl;
              string_of_int key_range;
              Printf.sprintf "%.0f" (r.ops_per_s /. 1000.);
            ])
        [
          (module Lf_hashtable.Atomic_int : Lf_workload.Runner.INT_DICT);
          (module Lf_skiplist.Fr_skiplist.Atomic_int);
          (module Lf_list.Fr_list.Atomic_int);
        ];
      print_newline ())
    [ 1024; 16384 ]

let steps_part () =
  Tables.subsection "(b) essential steps per op vs bucket count (sim, n=512)";
  let widths = [ 9; 14 ] in
  Tables.row widths [ "buckets"; "steps/op" ];
  List.iter
    (fun buckets ->
      let t = HS.create_with ~buckets () in
      let module D = Lf_workload.Dict.Of (HS) in
      let ops = D.make t in
      let filled =
        Lf_workload.Sim_driver.prefill ~key_range:1024 ~count:512 ~seed:3 ops
      in
      let res =
        Lf_workload.Sim_driver.run_mixed ~policy:(Sim.Random 5)
          ~initial_size:filled ~procs:2 ~ops_per_proc:150 ~key_range:1024
          ~mix:{ insert_pct = 25; delete_pct = 25 }
          ~seed:5 ops
      in
      let steps_per_op = float_of_int (Sim.total_essential res) /. 300.0 in
      Bench_json.emit_part ~exp:"exp11" ~part:"bucket_scaling"
        Bench_json.[ ("buckets", I buckets); ("steps_per_op", F steps_per_op) ];
      Tables.row widths
        [ string_of_int buckets; Printf.sprintf "%.1f" steps_per_op ])
    [ 1; 4; 16; 64; 256 ];
  Tables.note "steps/op ~ n/buckets + O(1): doubling buckets halves the walk."

let run () =
  Tables.section "EXP-11  Hash table on lock-free list buckets (Michael [8])";
  throughput_part ();
  steps_part ()
