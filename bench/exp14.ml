(* EXP-14: simulator-vs-real cost-model validation.

   Every step-count experiment in this harness runs in the deterministic
   simulator.  This experiment closes the methodological loop: the same
   workload is run (a) in the simulator and (b) on real domains over real
   atomics instrumented with Counting_mem, and the essential-steps-per-
   operation figures are compared.  They will not be identical - real runs
   interleave differently - but they must be the same magnitude and ranking,
   otherwise the simulator would not be a faithful cost model. *)

module Sim = Lf_dsim.Sim

module FRC = Lf_list.Fr_list.Counting_int
module FRS = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)

module SLC = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_kernel.Counting_mem)
module SLS = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)

let key_range = 256
let per_domain = 5_000
let mix = Lf_workload.Opgen.{ insert_pct = 25; delete_pct = 25 }

(* Real run: 2 domains over Counting_mem; essential steps from the merged
   per-domain counters. *)
let real_run d =
  Lf_kernel.Counting_mem.reset_all ();
  let work did () =
    let rng = Lf_kernel.Splitmix.create (100 + did) in
    let keygen = Lf_workload.Keygen.uniform key_range in
    for _ = 1 to per_domain do
      ignore (Lf_workload.Dict.apply d (Lf_workload.Opgen.draw mix keygen rng))
    done
  in
  let d = Domain.spawn (work 1) in
  work 0 ();
  Domain.join d;
  let total = Lf_kernel.Counting_mem.grand_total () in
  float_of_int (Lf_kernel.Counters.essential_steps total)
  /. float_of_int (2 * per_domain)

let sim_run (ops : Lf_workload.Dict.t) =
  let res =
    Lf_workload.Sim_driver.run_mixed ~policy:(Sim.Random 100) ~procs:2
      ~ops_per_proc:(per_domain / 10) ~key_range ~mix ~seed:100 ops
  in
  float_of_int (Sim.total_essential res)
  /. float_of_int (List.length res.ops)

let run () =
  Tables.section
    "EXP-14  Cost-model validation: simulator vs instrumented real domains";
  Tables.note
    "mixed 25i/25d/50s over %d keys; essential steps per op, 2 workers"
    key_range;
  print_newline ();
  let widths = [ 14; 12; 12 ] in
  Tables.row widths [ "impl"; "sim"; "real" ];
  (* FR list *)
  let sim_list =
    let t = FRS.create () in
    let module D = Lf_workload.Dict.Of (FRS) in
    let ops = D.make t in
    ignore (Lf_workload.Sim_driver.prefill ~key_range ~count:(key_range / 2) ~seed:1 ops);
    sim_run ops
  in
  let real_list =
    let module D = Lf_workload.Dict.Of (FRC) in
    let d = D.make (FRC.create ()) in
    Lf_workload.Runner.prefill ~key_range ~fill:50 ~seed:1 d.insert;
    Lf_kernel.Counting_mem.reset_all ();
    real_run d
  in
  Tables.row widths
    [ "fr-list"; Printf.sprintf "%.1f" sim_list; Printf.sprintf "%.1f" real_list ];
  (* FR skip list *)
  let sim_sl =
    let t = SLS.create_with ~max_level:12 () in
    let module D = Lf_workload.Dict.Of (SLS) in
    let ops = D.make t in
    ignore (Lf_workload.Sim_driver.prefill ~key_range ~count:(key_range / 2) ~seed:1 ops);
    sim_run ops
  in
  let real_sl =
    let module D = Lf_workload.Dict.Of (SLC) in
    let d = D.make (SLC.create_with ~max_level:12 ()) in
    Lf_workload.Runner.prefill ~key_range ~fill:50 ~seed:1 d.insert;
    Lf_kernel.Counting_mem.reset_all ();
    real_run d
  in
  Tables.row widths
    [ "fr-skiplist"; Printf.sprintf "%.1f" sim_sl; Printf.sprintf "%.1f" real_sl ];
  Tables.note
    "agreement within a few percent is expected: on one core real domains";
  Tables.note
    "interleave coarsely (few C&S failures), like a low-contention schedule.";
  List.iter
    (fun (structure, sim, real) ->
      Bench_json.emit ~exp:"exp14"
        Bench_json.
          [
            ("structure", S structure);
            ("sim_steps_per_op", F sim);
            ("real_steps_per_op", F real);
          ])
    [ ("fr-list", sim_list, real_list); ("fr-skiplist", sim_sl, real_sl) ];
  (sim_list, real_list, sim_sl, real_sl)
