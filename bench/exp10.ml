(* EXP-10: linearizability battery (Section 3.3).

   The paper proves every operation linearizable; we verify mechanically:
   recorded histories from both simulator schedules and real domains are fed
   through the Wing-Gold checker for every implementation. *)

module Sim = Lf_dsim.Sim

module Ord = Lf_kernel.Ordered.Int
module Mem = Lf_dsim.Sim_mem

type sim_target = { sname : string; mk : unit -> Lf_workload.Dict.t }

let sim_targets =
  [
    {
      sname = "fr-list";
      mk =
        (fun () ->
          let module L = Lf_list.Fr_list.Make (Ord) (Mem) in
          let module D = Lf_workload.Dict.Of (L) in
          D.make (L.create ()));
    };
    {
      sname = "fr-skiplist";
      mk =
        (fun () ->
          let module L = Lf_skiplist.Fr_skiplist.Make (Ord) (Mem) in
          let module D = Lf_workload.Dict.Of (L) in
          D.make (L.create_with ~max_level:6 ()));
    };
    {
      sname = "fraser-skiplist";
      mk =
        (fun () ->
          let module L = Lf_skiplist.Fraser_skiplist.Make (Ord) (Mem) in
          let module D = Lf_workload.Dict.Of (L) in
          D.make (L.create_with ~max_level:5 ()));
    };
    {
      sname = "st-skiplist";
      mk =
        (fun () ->
          let module L = Lf_skiplist.St_skiplist.Make (Ord) (Mem) in
          let module D = Lf_workload.Dict.Of (L) in
          D.make (L.create_with ~max_level:5 ()));
    };
    {
      sname = "harris";
      mk =
        (fun () ->
          let module L = Lf_baselines.Harris_list.Make (Ord) (Mem) in
          let module D = Lf_workload.Dict.Of (L) in
          D.make (L.create ()));
    };
    {
      sname = "michael";
      mk =
        (fun () ->
          let module L = Lf_baselines.Michael_list.Make (Ord) (Mem) in
          let module D = Lf_workload.Dict.Of (L) in
          D.make (L.create ()));
    };
    {
      sname = "valois";
      mk =
        (fun () ->
          let module L = Lf_baselines.Valois_list.Make (Ord) (Mem) in
          let module D = Lf_workload.Dict.Of (L) in
          D.make (L.create ()));
    };
  ]

let domain_targets : (module Lf_workload.Runner.INT_DICT) list =
  [
    (module Lf_list.Fr_list.Atomic_int);
    (module Lf_skiplist.Fr_skiplist.Atomic_int);
    (module Lf_skiplist.Fraser_skiplist.Atomic_int);
    (module Lf_skiplist.St_skiplist.Atomic_int);
    (module Lf_baselines.Harris_list.Atomic_int);
    (module Lf_baselines.Michael_list.Atomic_int);
    (module Lf_baselines.Valois_list.Atomic_int);
    (module Lf_baselines.Lazy_list.Int);
  ]

let seeds n base = List.init n (fun i -> base + i)

let run () =
  Tables.section "EXP-10  Linearizability battery (Wing-Gold checker)";
  let widths = [ 14; 16; 8; 8 ] in
  Tables.row widths [ "impl"; "source"; "checked"; "passed" ];
  let all_ok = ref true in
  List.iter
    (fun tgt ->
      let passed = ref 0 and total = ref 0 in
      List.iter
        (fun seed ->
          incr total;
          let h =
            Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed)
              ~procs:3 ~ops_per_proc:15 ~key_range:6
              ~mix:{ insert_pct = 40; delete_pct = 40 }
              ~seed (tgt.mk ())
          in
          match Lf_lin.Checker.check h with
          | Lf_lin.Checker.Linearizable -> incr passed
          | Lf_lin.Checker.Not_linearizable -> all_ok := false)
        (seeds 30 1000);
      Bench_json.emit_part ~exp:"exp10" ~part:"battery"
        Bench_json.
          [
            ("impl", S tgt.sname);
            ("source", S "sim");
            ("checked", I !total);
            ("passed", I !passed);
          ];
      Tables.row widths
        [ tgt.sname; "sim schedules"; string_of_int !total; string_of_int !passed ])
    sim_targets;
  List.iter
    (fun (module D : Lf_workload.Runner.INT_DICT) ->
      let passed = ref 0 and total = ref 0 in
      List.iter
        (fun seed ->
          incr total;
          let h =
            Lf_workload.Runner.run_recorded
              (module D)
              ~domains:3 ~ops_per_domain:10 ~key_range:5
              ~mix:{ insert_pct = 40; delete_pct = 40 }
              ~seed ()
          in
          match Lf_lin.Checker.check h with
          | Lf_lin.Checker.Linearizable -> incr passed
          | Lf_lin.Checker.Not_linearizable -> all_ok := false)
        (seeds 10 2000);
      Bench_json.emit_part ~exp:"exp10" ~part:"battery"
        Bench_json.
          [
            ("impl", S D.name);
            ("source", S "domains");
            ("checked", I !total);
            ("passed", I !passed);
          ];
      Tables.row widths
        [ D.name; "real domains"; string_of_int !total; string_of_int !passed ])
    domain_targets;
  Tables.note "all histories linearizable: %b" !all_ok;
  !all_ok
