(* EXP-18: graceful degradation under injected faults (DESIGN.md §8).

   Lock-freedom is a liveness property: a crashed or stalled process must
   not stop the others.  This experiment makes it measurable with the
   lf_fault layer (deterministic fault plans executed by Fault_mem) and the
   chaos drivers' starvation watchdogs.

   Part A (wall-clock, Runner.run_chaos): survivor throughput with one of
   q=4 lanes crashed mid-protocol or stalled at every C&S, for the FR list
   and skip list and the Harris list (fault-injected memories) vs the
   lock-based baselines with the same lane holding the structure's lock for
   the whole window.  PASS: FR/Harris survivors keep > 0 throughput and no
   non-faulted lane starves; coarse-list and locked-skiplist collapse to
   <= 5% of their own baseline with the lock held and trip the watchdog.

   Part B (simulator, Explore.run_crash): exhaustive single-crash sweep -
   crash either process at EVERY scheduling point of a small scenario on
   the FR list and skip list; after each crash a survivor sweep must drain
   the structure through the residue and leave it clean.  PASS: zero
   failures, sweep not truncated.

   Part C (simulator): steps-to-recover - a lone deleter crashes between
   TRYFLAG and TRYMARK (fault plan: crash at its first mark-cas); the
   essential steps of the survivor operation that completes the orphaned
   deletion, vs the same delete with no residue. *)

open Lf_workload
module K = Lf_kernel.Ordered.Int
module FP = Lf_kernel.Fault_point
module Fault = Lf_fault.Fault

(* Fault-injecting wall-clock stack, over the counting memory so chaos
   reports carry the helping counters (survivors' recovery work). *)
module FMem = Lf_fault.Fault_mem.Make (Lf_kernel.Counting_mem)
module FL = Lf_list.Fr_list.Make (K) (FMem)
module FS = Lf_skiplist.Fr_skiplist.Make (K) (FMem)
module FH = Lf_baselines.Harris_list.Make (K) (FMem)

(* Simulator stacks for Parts B and C. *)
module SimL = Lf_list.Fr_list.Make (K) (Lf_dsim.Sim_mem)
module SimS = Lf_skiplist.Fr_skiplist.Make (K) (Lf_dsim.Sim_mem)
module SimFM = Lf_fault.Fault_mem.Make (Lf_dsim.Sim_mem)
module SimFL = Lf_list.Fr_list.Make (K) (SimFM)

let sample_faulted () =
  [
    ("injected", List.length (FMem.injected ()));
    ("helps", (Lf_kernel.Counting_mem.grand_total ()).Lf_kernel.Counters.helps);
  ]

(* ------------------------------------------------------------------ *)
(* Part A: wall-clock survivor throughput, one lane faulted.           *)

let domains = 4
let faulted_lane = 0

type scenario = {
  sc_label : string;
  sc_plan : Fault.plan option;  (* installed into FMem (lock-free subjects) *)
  sc_victim : (((unit -> unit) -> unit) -> unit -> unit) option;
      (* lock-based subjects: wraps the structure's hold-the-lock hook *)
}

let window_s () = if !Bench_json.quick then 0.12 else 0.25
let budget_s = 0.05

(* One lane crashed mid-protocol: it dies at its first access after a
   successful TRYFLAG — the flag it just published is orphaned and the
   survivors must complete the deletion (HELPFLAGGED/HELPMARKED).  The
   Harris list has no flags, so its victim dies right after a successful
   TRYMARK instead, leaving a marked node for the survivors to excise. *)
let crash_plan =
  Fault.make_plan ~seed:7
    [
      Fault.crash_at ~lane:faulted_lane 1
        (FP.After_cas_ok Lf_kernel.Mem_event.Flagging);
    ]

let crash_plan_harris =
  Fault.make_plan ~seed:7
    [
      Fault.crash_at ~lane:faulted_lane 1
        (FP.After_cas_ok Lf_kernel.Mem_event.Marking);
    ]

(* One lane stalled: a pause storm before every C&S it attempts. *)
let stall_plan =
  Fault.make_plan ~seed:7
    [
      {
        Fault.point = FP.Any_cas;
        action = Fault.Stall 64;
        mode = Fault.Always;
        lane = Some faulted_lane;
      };
    ]

let lockfree_scenarios ~harris =
  [
    { sc_label = "none"; sc_plan = None; sc_victim = None };
    {
      sc_label = (if harris then "crash@mark" else "crash@flag");
      sc_plan = Some (if harris then crash_plan_harris else crash_plan);
      sc_victim = None;
    };
    { sc_label = "stall@cas"; sc_plan = Some stall_plan; sc_victim = None };
  ]

let lockbased_scenarios =
  [
    { sc_label = "none"; sc_plan = None; sc_victim = None };
    {
      sc_label = "held-lock";
      sc_plan = None;
      sc_victim =
        Some
          (fun hold () ->
            (* The holder "crashes": it sits on the lock past the whole
               window (domains cannot be killed, so a crash is a stall
               longer than anyone's patience). *)
            hold (fun () -> Unix.sleepf (window_s () +. 0.08)));
    };
  ]

type subject = {
  su_name : string;
  su_lock_based : bool;
  su_make : unit -> Dict.t * ((unit -> unit) -> unit);
      (* fresh structure, and its hold-the-lock hook *)
}

let no_hold _ = failwith "not a lock-based structure"

module FL_dict = Dict.Of (FL)
module FS_dict = Dict.Of (FS)
module FH_dict = Dict.Of (FH)
module Lazy_dict = Dict.Of (Lf_baselines.Lazy_list.Int)
module Coarse_dict = Dict.Of (Lf_baselines.Coarse_list.Int)
module Locked_dict = Dict.Of (Lf_skiplist.Locked_skiplist.Int)

let subjects =
  [
    {
      su_name = "fr-list";
      su_lock_based = false;
      su_make = (fun () -> (FL_dict.make (FL.create ()), no_hold));
    };
    {
      su_name = "fr-skiplist";
      su_lock_based = false;
      su_make = (fun () -> (FS_dict.make (FS.create ()), no_hold));
    };
    {
      su_name = "harris-list";
      su_lock_based = false;
      su_make = (fun () -> (FH_dict.make (FH.create ()), no_hold));
    };
    {
      su_name = "lazy-list";
      su_lock_based = true;
      su_make =
        (fun () ->
          let t = Lf_baselines.Lazy_list.Int.create () in
          (Lazy_dict.make t, Lf_baselines.Lazy_list.Int.with_head_locked t));
    };
    {
      su_name = "coarse-list";
      su_lock_based = true;
      su_make =
        (fun () ->
          let t = Lf_baselines.Coarse_list.Int.create () in
          (Coarse_dict.make t, Lf_baselines.Coarse_list.Int.with_lock_held t));
    };
    {
      su_name = "locked-skiplist";
      su_lock_based = true;
      su_make =
        (fun () ->
          let t = Lf_skiplist.Locked_skiplist.Int.create () in
          ( Locked_dict.make t,
            Lf_skiplist.Locked_skiplist.Int.with_lock_held t ));
    };
  ]

let run_scenario su sc : Runner.chaos_report =
  let d, hold = su.su_make () in
  (match sc.sc_plan with Some p -> FMem.install p | None -> ());
  let victims =
    match sc.sc_victim with
    | Some wrap -> [ (faulted_lane, wrap hold) ]
    | None -> []
  in
  let sample = if su.su_lock_based then fun () -> [] else sample_faulted in
  let r =
    Runner.run_chaos ~victims ~budget_s ~window_s:(window_s ()) ~sample
      ~name:su.su_name d ~domains ~key_range:256 ~mix:Opgen.mixed ~seed:42 ()
  in
  FMem.uninstall ();
  r

(* Starvation among lanes that were NOT deliberately faulted: the faulted
   lane exceeding its own budget is the fault, not a liveness failure. *)
let innocent_starved (r : Runner.chaos_report) =
  List.filter (fun (lane, _) -> lane <> faulted_lane) r.c_starved

let part_a () =
  Tables.subsection
    (Printf.sprintf
       "Part A: survivor throughput, lane %d faulted (%d domains, %.2fs \
        window, %.2fs budget)"
       faulted_lane domains (window_s ()) budget_s);
  let widths = [ 16; 11; 5; 11; 9; 9; 9; 8 ] in
  Tables.row widths
    [
      "impl"; "scenario"; "surv"; "surv-ops/s"; "starved"; "crashed";
      "injected"; "helps";
    ];
  let failures = ref [] in
  let baselines = Hashtbl.create 8 in
  List.iter
    (fun su ->
      let scenarios =
        if su.su_lock_based then lockbased_scenarios
        else lockfree_scenarios ~harris:(su.su_name = "harris-list")
      in
      List.iter
        (fun sc ->
          let r = run_scenario su sc in
          let starved = innocent_starved r in
          let lookup key =
            match List.assoc_opt key r.c_counters with Some v -> v | None -> 0
          in
          Tables.row widths
            [
              su.su_name;
              sc.sc_label;
              string_of_int r.c_survivors;
              Printf.sprintf "%.0f" r.c_survivor_ops_per_s;
              (if starved = [] then "-"
               else string_of_int (List.length starved));
              (if r.c_crashed = [] then "-"
               else String.concat "," (List.map string_of_int r.c_crashed));
              string_of_int (lookup "injected");
              string_of_int (lookup "helps");
            ];
          if sc.sc_label = "none" then
            Hashtbl.replace baselines su.su_name r.c_survivor_ops_per_s
          else begin
            let base =
              try Hashtbl.find baselines su.su_name with Not_found -> 0.
            in
            if su.su_lock_based then begin
              (* Lock-based collapse: the lazy list keeps its wait-free
                 finds, so only the global-lock structures must go to ~0
                 (the few ops landing before the victim grabs the lock are
                 allowed 10% of baseline). *)
              if
                su.su_name <> "lazy-list"
                && base > 0.
                && r.c_survivor_ops_per_s > 0.10 *. base
              then
                failures :=
                  Printf.sprintf
                    "%s/%s: survivors kept %.0f ops/s (> 10%% of %.0f \
                     baseline)"
                    su.su_name sc.sc_label r.c_survivor_ops_per_s base
                  :: !failures;
              if not r.c_watchdog_tripped then
                failures :=
                  Printf.sprintf "%s/%s: watchdog did not trip" su.su_name
                    sc.sc_label
                  :: !failures
            end
            else begin
              if r.c_survivor_ops = 0 then
                failures :=
                  Printf.sprintf "%s/%s: survivors made no progress"
                    su.su_name sc.sc_label
                  :: !failures;
              if starved <> [] then
                failures :=
                  Printf.sprintf "%s/%s: non-faulted lane starved" su.su_name
                    sc.sc_label
                  :: !failures
            end
          end;
          Bench_json.emit_part ~exp:"exp18" ~part:"chaos"
            Bench_json.
              [
                ("impl", S su.su_name);
                ("scenario", S sc.sc_label);
                ("domains", I r.c_domains);
                ("survivors", I r.c_survivors);
                ("survivor_ops", I r.c_survivor_ops);
                ("survivor_ops_per_s", F r.c_survivor_ops_per_s);
                ("starved_innocent", I (List.length starved));
                ("watchdog", B r.c_watchdog_tripped);
                ("crashed_lanes", I (List.length r.c_crashed));
                ("injected", I (lookup "injected"));
                ("helps", I (lookup "helps"));
              ])
        scenarios;
      print_newline ())
    subjects;
  !failures

(* ------------------------------------------------------------------ *)
(* Part B: exhaustive single-crash sweep in the simulator.             *)

let drain_list t keys =
  let sweep _ =
    (* Two rounds: the first drains through the residue (helping any
       orphaned deletion it meets), the second scrubs leftovers. *)
    for _ = 1 to 2 do
      List.iter (fun k -> ignore (SimL.delete t k)) keys
    done
  in
  ignore (Lf_dsim.Sim.run [| sweep |]);
  Lf_dsim.Sim.quiet (fun () ->
      if SimL.length t <> 0 then Error "survivor sweep left elements behind"
      else
        match SimL.Debug.check_now t with
        | Error e -> Error ("post-sweep: " ^ e)
        | Ok () -> (
            try
              SimL.check_invariants t;
              Ok ()
            with Failure m -> Error ("post-sweep: " ^ m)))

let mk_list_scenario () =
  let t = SimL.create () in
  Lf_dsim.Sim.quiet (fun () ->
      List.iter (fun k -> ignore (SimL.insert t k k)) [ 10; 20; 30 ]);
  let bodies =
    [|
      (fun _ -> ignore (SimL.delete t 20));
      (fun _ ->
        ignore (SimL.insert t 15 15);
        ignore (SimL.delete t 30));
    |]
  in
  let oracle ~crashed:_ =
    match Lf_dsim.Sim.quiet (fun () -> SimL.Debug.check_now t) with
    | Error e -> Error ("post-crash: " ^ e)
    | Ok () -> drain_list t [ 10; 15; 20; 30 ]
  in
  (bodies, oracle)

let drain_skiplist t keys =
  let sweep _ =
    for _ = 1 to 2 do
      List.iter (fun k -> ignore (SimS.delete t k)) keys;
      List.iter (fun k -> ignore (SimS.mem t k)) keys
    done
  in
  ignore (Lf_dsim.Sim.run [| sweep |]);
  Lf_dsim.Sim.quiet (fun () ->
      if SimS.length t <> 0 then Error "survivor sweep left elements behind"
      else
        try
          SimS.check_invariants t;
          Ok ()
        with Failure m -> Error ("post-sweep: " ^ m))

let mk_skiplist_scenario () =
  let t = SimS.create_with ~max_level:4 () in
  Lf_dsim.Sim.quiet (fun () ->
      ignore (SimS.insert_with_height t ~height:3 10 10);
      ignore (SimS.insert_with_height t ~height:2 20 20);
      ignore (SimS.insert_with_height t ~height:4 30 30));
  let bodies =
    [|
      (fun _ -> ignore (SimS.delete t 20));
      (fun _ ->
        ignore (SimS.insert_with_height t ~height:2 15 15);
        ignore (SimS.delete t 30));
    |]
  in
  let oracle ~crashed:_ = drain_skiplist t [ 10; 15; 20; 30 ] in
  (bodies, oracle)

let part_b () =
  Tables.subsection
    "Part B: exhaustive single-crash sweep (crash either proc at every step)";
  let widths = [ 14; 11; 10; 10 ] in
  Tables.row widths [ "structure"; "schedules"; "failures"; "truncated" ];
  let failures = ref [] in
  List.iter
    (fun (name, mk) ->
      let out =
        Lf_dsim.Explore.run_crash ~max_preemptions:0 ~max_crashes:1
          ~max_steps:200_000 mk
      in
      Tables.row widths
        [
          name;
          string_of_int out.c_schedules_run;
          string_of_int (List.length out.c_failures);
          string_of_bool out.c_truncated;
        ];
      List.iteri
        (fun i (prefix, msg) ->
          if i < 3 then
            Tables.note "%s failure: %s [%s]" name msg
              (String.concat " "
                 (List.map Lf_dsim.Explore.choice_to_string prefix)))
        out.c_failures;
      if out.c_failures <> [] then
        failures :=
          Printf.sprintf "%s: %d crash schedules failed" name
            (List.length out.c_failures)
          :: !failures;
      if out.c_truncated then
        failures := Printf.sprintf "%s: sweep truncated" name :: !failures;
      Bench_json.emit_part ~exp:"exp18" ~part:"crash_sweep"
        Bench_json.
          [
            ("structure", S name);
            ("schedules", I out.c_schedules_run);
            ("failures", I (List.length out.c_failures));
            ("truncated", B out.c_truncated);
          ])
    [ ("fr-list", mk_list_scenario); ("fr-skiplist", mk_skiplist_scenario) ];
  !failures

(* ------------------------------------------------------------------ *)
(* Part C: steps to recover from a deleter crashed between TRYFLAG and  *)
(* TRYMARK.                                                            *)

let delete_steps ~residue : int * bool =
  let t = SimFL.create () in
  Lf_dsim.Sim.quiet (fun () ->
      List.iter (fun k -> ignore (SimFL.insert t k k)) [ 1; 2; 3; 4; 5 ]);
  if residue then begin
    (* The victim deleter dies at its first TRYMARK attempt: the flag on
       node 2 is published, node 3 is not yet marked. *)
    SimFM.install
      (Fault.make_plan ~seed:1
         [ Fault.crash_at 1 (FP.Cas Lf_kernel.Mem_event.Marking) ]);
    ignore
      (Lf_dsim.Sim.run
         [|
           (fun _ ->
             try ignore (SimFL.delete t 3)
             with Fault.Crashed _ -> () (* the lane is dead *));
         |]);
    SimFM.uninstall ()
  end;
  (* The survivor deletes the same key: with residue it finds the
     predecessor already flagged, so its own TRYFLAG loses and it helps
     the orphaned deletion to completion instead. *)
  let survivor_result = ref false in
  let res =
    Lf_dsim.Sim.run
      [|
        (fun _ ->
          Lf_dsim.Sim.op_begin ~n:5;
          survivor_result := SimFL.delete t 3;
          Lf_dsim.Sim.op_end ());
      |]
  in
  let steps =
    match res.ops with
    | [ o ] -> o.essential
    | os -> List.fold_left (fun acc (o : Lf_dsim.Sim.op_record) -> acc + o.essential) 0 os
  in
  let gone =
    Lf_dsim.Sim.quiet (fun () ->
        SimFL.check_invariants t;
        not (SimFL.mem t 3) && SimFL.length t = 4)
  in
  (steps, gone)

let part_c () =
  Tables.subsection
    "Part C: steps to recover an orphaned deletion (crash between TRYFLAG \
     and TRYMARK)";
  let widths = [ 26; 12; 10 ] in
  Tables.row widths [ "case"; "steps"; "clean" ];
  let base_steps, base_ok = delete_steps ~residue:false in
  let rec_steps, rec_ok = delete_steps ~residue:true in
  Tables.row widths
    [ "delete, no residue"; string_of_int base_steps; string_of_bool base_ok ];
  Tables.row widths
    [
      "delete through residue";
      string_of_int rec_steps;
      string_of_bool rec_ok;
    ];
  Tables.note "steps-to-recover: %+d essential steps over the clean delete"
    (rec_steps - base_steps);
  Bench_json.emit_part ~exp:"exp18" ~part:"recover"
    Bench_json.
      [
        ("baseline_steps", I base_steps);
        ("recovery_steps", I rec_steps);
        ("clean", B (base_ok && rec_ok));
      ];
  if base_ok && rec_ok then []
  else [ "part C: recovery left the structure dirty" ]

let run () =
  Tables.section "EXP-18  Graceful degradation under crashes and stalls";
  let fa = part_a () in
  let fb = part_b () in
  let fc = part_c () in
  let failures = fa @ fb @ fc in
  (match failures with
  | [] ->
      Tables.note
        "PASS: FR survivors keep making progress past any single crash or";
      Tables.note
        "stall; global-lock baselines collapse and trip the watchdog."
  | fs ->
      List.iter (fun f -> Tables.note "FAIL: %s" f) fs;
      Tables.note "acceptance criteria NOT met (see rows above)");
  failures = []
