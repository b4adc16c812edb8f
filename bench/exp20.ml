(* EXP-20: overload robustness — the lib/svc service layer under
   open-loop overload (DESIGN.md §10).

   Closed-loop benchmarks cannot show overload: the harness slows down
   with the subject.  Here Runner.run_open_loop paces arrivals at a fixed
   rate regardless of completions, and every request runs through the Svc
   pipeline (deadline -> shed -> breaker -> budget-governed retries) in
   front of the FR skip list.  A "request" is a 16-operation transaction,
   so service time is large enough to pace precisely on one core.

   Part A (capacity): saturate the harness (arrival rate far above what
   the workers can drain) with the policy-free pipeline; the served rate
   is the capacity C that calibrates the overload factors.

   Part B (overload grid): offered load 1x/2x/4x/8x capacity, policies
   toggled: none (accept everything, serve in arrival order), deadline
   (reject dead-on-arrival work when a worker picks it up), shed+budget
   (deadline + queue-depth/feasibility shedding + budgeted retries).
   Goodput counts requests completed within the 20ms standard, measured
   from ARRIVAL — the same standard for every config, whether or not the
   config enforces it.  PASS (full runs): at >= 4x overload, shed+budget
   goodput >= 2x the goodput of "none".

   Part C (retry storm): 2x overload with an injected crash-rate fault
   plan making executions fail and retry, budgets off vs on, alternating
   over five repetitions (two under --quick).  Unbudgeted retries amplify
   offered work precisely when there is no headroom (the
   metastable-failure shape); the budget caps the amplification.  PASS,
   on the medians: retries stay within the budget cap and goodput with
   the budget is no worse.

   Part D (breaker replay): a stall-heavy fault plan (PR 3) slows every
   C&S; the breaker's latency threshold sees the stall storm, opens,
   degrades to read-only (writes rejected AS rejections, reads still
   served), probes after the cool-down once the plan is uninstalled, and
   recovers.  The transition trace (tick, state) lands in
   BENCH_exp20.json.  PASS: closed -> open while stalled, open ->
   half-open -> closed after the plan is removed, reads served while
   open, writes rejected-not-dropped. *)

open Lf_workload
module K = Lf_kernel.Ordered.Int
module Svc = Lf_svc.Svc
module Clock = Lf_svc.Clock
module Deadline = Lf_svc.Deadline
module Retry = Lf_svc.Retry
module Breaker = Lf_svc.Breaker
module Shed = Lf_svc.Shed
module Fault = Lf_fault.Fault
module FP = Lf_kernel.Fault_point

(* The subject: FR skip list over a fault-capable memory, so Parts C and
   D can inject crash-rate and stall plans into the very same stack. *)
module FMem = Lf_fault.Fault_mem.Make (Lf_kernel.Atomic_mem)
module FS = Lf_skiplist.Fr_skiplist.Make (K) (FMem)

let key_range = 4096
let txn = 16 (* dictionary operations per request *)
let workers = 2
let deadline_std_ms = 20 (* the goodput standard, all configs *)

let window_s () = if !Bench_json.quick then 0.12 else 0.3
let factors () = if !Bench_json.quick then [ 1.; 4. ] else [ 1.; 2.; 4.; 8. ]

(* A request touches [txn] keys derived from its base key: enough real
   skip-list work per request (~tens of microseconds) for open-loop
   pacing to resolve on a single core. *)
let mk_ops () : Svc.ops =
  let t = FS.create () in
  Runner.prefill ~key_range ~fill:50 ~seed:11 (fun k -> FS.insert t k k);
  let spread f k =
    let r = ref false in
    for i = 0 to txn - 1 do
      r := f ((k + (i * 7919)) land (key_range - 1))
    done;
    !r
  in
  {
    insert = (fun k _ -> spread (fun k -> FS.insert t k k) k);
    delete = (fun k -> spread (fun k -> FS.delete t k) k);
    find = (fun k -> spread (fun k -> FS.mem t k) k);
  }

let mix = { Opgen.insert_pct = 20; delete_pct = 20 }

let retryable = function Fault.Crashed _ -> true | _ -> false

(* One open-loop run: wrap [svc] as the runner's serve closure.  The
   deadline is anchored at ARRIVAL (not at pop), enforced only when
   [enforce] says so; [good] counts completions within the standard
   regardless of enforcement, so configs compete on one metric. *)
let run_once ~svc ~clock ~enforce ~rate ~seed =
  let std = Clock.ms clock deadline_std_ms in
  let good = Atomic.make 0 in
  let serve ~arrival_ns ~queue_depth op =
    let req =
      match op with
      | Opgen.Insert k -> Svc.Insert (k, k)
      | Opgen.Delete k -> Svc.Delete k
      | Opgen.Find k -> Svc.Find k
    in
    let dl = if enforce then Deadline.at (arrival_ns + std) else Deadline.none in
    match Svc.call svc ~deadline:dl ~queue_depth req with
    | Svc.Served ok | Svc.Served_stale (ok, _) ->
        if Clock.now clock - arrival_ns <= std then Atomic.incr good;
        `Served ok
    | Svc.Rejected _ -> `Rejected
    | Svc.Failed _ -> `Failed
  in
  let r =
    Runner.run_open_loop ~workers ~rate ~window_s:(window_s ()) ~key_range ~mix
      ~seed ~serve ()
  in
  (r, Atomic.get good)

type cfg_kind = C_none | C_deadline | C_shed_budget

let cfg_name = function
  | C_none -> "none"
  | C_deadline -> "deadline"
  | C_shed_budget -> "shed+budget"

let mk_svc kind ~clock ~backoff =
  let ms = Clock.ms clock in
  let cfg =
    match kind with
    | C_none -> Svc.config ~clock ~retryable ()
    | C_deadline -> Svc.config ~clock ~retryable ()
    | C_shed_budget ->
        Svc.config ~clock ~retryable
          ~retry:(Some (Retry.policy ~max_attempts:4 ~base_delay:(ms 1 / 20) ()))
          ~budget:(Retry.Budget.config ~capacity:256 ~refill_every:(ms 50) ())
          ~shed:
            (Some (Shed.config ~max_queue:512 ~est_init:(ms 1 / 20) ~workers ()))
          ~backoff ()
  in
  Svc.create cfg (mk_ops ())

let enforces = function C_none -> false | C_deadline | C_shed_budget -> true

(* ------------------------------------------------------------------ *)
(* Part A: capacity.                                                   *)

let part_a ~clock =
  Tables.subsection "Part A: capacity (policy-free pipeline, saturated)";
  let svc = mk_svc C_none ~clock ~backoff:(fun _ -> ()) in
  let r, _good = run_once ~svc ~clock ~enforce:false ~rate:400_000 ~seed:3 in
  let capacity = r.Runner.o_goodput in
  Tables.note "served %d of %d offered in %.3fs -> capacity %.0f req/s"
    r.o_served r.o_offered r.o_elapsed_s capacity;
  Bench_json.emit_part ~exp:"exp20" ~part:"capacity"
    Bench_json.[
      ("impl", S "fr-skiplist");
      ("txn_ops", I txn);
      ("workers", I workers);
      ("offered", I r.o_offered);
      ("served", I r.o_served);
      ("capacity_req_s", F capacity);
    ];
  capacity

(* ------------------------------------------------------------------ *)
(* Part B: the overload grid.                                          *)

let part_b ~clock ~capacity =
  Tables.subsection
    "Part B: open-loop overload, goodput = completions within 20ms of arrival";
  Tables.row [ 12; 6; 9; 9; 9; 9; 9; 10; 9 ]
    [
      "config"; "x"; "offered"; "served"; "good"; "rejected"; "leftover";
      "goodput/s"; "p99 ms";
    ];
  let results = ref [] in
  List.iter
    (fun kind ->
      List.iter
        (fun factor ->
          let rate = max 1_000 (int_of_float (capacity *. factor)) in
          let svc = mk_svc kind ~clock ~backoff:(fun _ -> ()) in
          let r, good =
            run_once ~svc ~clock ~enforce:(enforces kind) ~rate
              ~seed:(17 + int_of_float factor)
          in
          let goodput = float_of_int good /. r.o_elapsed_s in
          let p99_ms =
            if Lf_obs.Hist.count r.o_latency = 0 then 0.
            else Lf_obs.Hist.percentile r.o_latency 0.99 /. 1e6
          in
          results := ((kind, factor), goodput) :: !results;
          Tables.row [ 12; 6; 9; 9; 9; 9; 9; 10; 9 ]
            [
              cfg_name kind;
              Printf.sprintf "%gx" factor;
              string_of_int r.o_offered;
              string_of_int r.o_served;
              string_of_int good;
              string_of_int r.o_rejected;
              string_of_int r.o_leftover;
              Printf.sprintf "%.0f" goodput;
              Printf.sprintf "%.2f" p99_ms;
            ];
          Bench_json.emit_part ~exp:"exp20" ~part:"overload"
            Bench_json.[
              ("config", S (cfg_name kind));
              ("factor", F factor);
              ("rate_req_s", I rate);
              ("offered", I r.o_offered);
              ("handled", I r.o_handled);
              ("served", I r.o_served);
              ("good", I good);
              ("rejected", I r.o_rejected);
              ("failed", I r.o_failed);
              ("leftover", I r.o_leftover);
              ("goodput_req_s", F goodput);
              ("p99_ms", F p99_ms);
            ])
        (factors ()))
    [ C_none; C_deadline; C_shed_budget ];
  (* Acceptance: at every >= 4x point, shedding+budgets at least doubles
     the goodput of the policy-free config. *)
  let failures = ref [] in
  if not !Bench_json.quick then
    List.iter
      (fun factor ->
        if factor >= 4. then
          let g k = List.assoc (k, factor) !results in
          let g_none = g C_none and g_shed = g C_shed_budget in
          if g_shed < 2. *. g_none then
            failures :=
              Printf.sprintf
                "overload %gx: shed+budget goodput %.0f < 2x none %.0f" factor
                g_shed g_none
              :: !failures)
      (factors ());
  !failures

(* ------------------------------------------------------------------ *)
(* Part C: retry storm, budgets off vs on.                             *)

let storm_plan =
  Fault.make_plan ~seed:23
    [ { Fault.point = FP.Any_cas; action = Crash; mode = Rate (0.05, 2); lane = None } ]

let budget_cap = 300

(* One storm run's goodput varies several-fold between runs of one build
   (four quick runs read budget-off 342-2,400/s), so budget-off and
   budget-on alternate over [storm_reps] repetitions and the bars are
   judged on the medians. *)
let storm_reps () = if !Bench_json.quick then 2 else 5

let part_c ~clock ~capacity =
  Tables.subsection "Part C: retry storm at 2x overload (crash-rate faults)";
  let rate = max 1_000 (int_of_float (capacity *. 2.)) in
  let ms = Clock.ms clock in
  let run ~budget_on =
    let budget =
      if budget_on then Retry.Budget.config ~capacity:budget_cap ~refill_every:0 ()
      else Retry.Budget.unlimited
    in
    let cfg =
      Svc.config ~clock ~retryable
        ~retry:(Some (Retry.policy ~max_attempts:10 ~base_delay:(ms 1 / 20) ()))
        ~budget
        ~backoff:(fun d -> Unix.sleepf (float_of_int d /. 1e9))
        ()
    in
    let svc = Svc.create cfg (mk_ops ()) in
    FMem.install storm_plan;
    let r, good = run_once ~svc ~clock ~enforce:true ~rate ~seed:29 in
    FMem.uninstall ();
    let st = Svc.stats svc in
    (r, good, st)
  in
  let report ~rep label (r, good, (st : Svc.stats)) =
    let goodput = float_of_int good /. r.Runner.o_elapsed_s in
    let amplification =
      if r.o_handled = 0 then 1.
      else float_of_int (r.o_handled + st.retries) /. float_of_int r.o_handled
    in
    Tables.note
      "%d %-11s handled %d, retries %d (amplification %.2fx), denied %d, \
       goodput %.0f/s"
      rep label r.o_handled st.retries amplification st.budget_denied goodput;
    Bench_json.emit_part ~exp:"exp20" ~part:"storm"
      Bench_json.[
        ("rep", I rep);
        ("budget", S label);
        ("rate_req_s", I rate);
        ("handled", I r.o_handled);
        ("served", I r.o_served);
        ("good", I good);
        ("failed", I r.o_failed);
        ("retries", I st.retries);
        ("budget_denied", I st.budget_denied);
        ("amplification", F amplification);
        ("goodput_req_s", F goodput);
      ];
    (goodput, float_of_int st.retries)
  in
  let off = ref [] and on = ref [] in
  for rep = 1 to storm_reps () do
    off := report ~rep "budget-off" (run ~budget_on:false) :: !off;
    on := report ~rep "budget-on" (run ~budget_on:true) :: !on
  done;
  let medians runs =
    (Tables.median (List.map fst runs), Tables.median (List.map snd runs))
  in
  let goodput_off, retries_off = medians !off
  and goodput_on, retries_on = medians !on in
  Tables.note
    "medians over %d: budget-off retries %.0f, goodput %.0f/s; budget-on \
     retries %.0f, goodput %.0f/s"
    (storm_reps ()) retries_off goodput_off retries_on goodput_on;
  Bench_json.emit_part ~exp:"exp20" ~part:"storm-median"
    Bench_json.[
      ("reps", I (storm_reps ()));
      ("retries_off", F retries_off);
      ("goodput_off_req_s", F goodput_off);
      ("retries_on", F retries_on);
      ("goodput_on_req_s", F goodput_on);
    ];
  let failures = ref [] in
  if not !Bench_json.quick then begin
    if retries_on > float_of_int budget_cap then
      failures :=
        Printf.sprintf "storm: median %.0f retries exceed the %d budget"
          retries_on budget_cap
        :: !failures;
    if retries_off <= retries_on then
      failures :=
        Printf.sprintf
          "storm: unbudgeted runs retried no more than budgeted (medians \
           %.0f <= %.0f)"
          retries_off retries_on
        :: !failures;
    if goodput_on < goodput_off *. 0.8 then
      failures :=
        Printf.sprintf "storm: budget hurt goodput (medians %.0f vs %.0f)"
          goodput_on goodput_off
        :: !failures
  end;
  !failures

(* ------------------------------------------------------------------ *)
(* Part D: breaker replay under a stall-heavy plan.                    *)

let stall_plan =
  Fault.make_plan ~seed:31
    [ { Fault.point = FP.Any_cas; action = Stall 2048; mode = Always; lane = None } ]

let part_d ~clock =
  Tables.subsection "Part D: breaker opens on a stall storm, recovers after";
  let ms = Clock.ms clock in
  let cfg =
    Svc.config ~clock ~retryable
      ~breaker:
        (Some
           (Breaker.config ~window:(ms 2000) ~min_calls:5 ~failure_pct:50
              ~latency_threshold:(ms 1 / 2) ~open_for:(ms 50) ~probes:3 ()))
      ()
  in
  let svc = Svc.create cfg (mk_ops ()) in
  let breaker_now () = (Svc.stats svc).breaker in
  let call req = Svc.call svc req in
  let count_outcomes reqs =
    let served = ref 0 and rejected = ref 0 and failed = ref 0 in
    List.iter
      (fun req ->
        match call req with
        | Svc.Served _ | Svc.Served_stale _ -> incr served
        | Svc.Rejected _ -> incr rejected
        | Svc.Failed _ -> incr failed)
      reqs;
    (!served, !rejected, !failed)
  in
  let phase_row phase (served, rejected, failed) =
    Tables.note "%-22s served %3d rejected %3d failed %3d breaker %s" phase
      served rejected failed
      (Option.value (breaker_now ()) ~default:"none");
    Bench_json.emit_part ~exp:"exp20" ~part:"breaker"
      Bench_json.[
        ("phase", S phase);
        ("served", I served);
        ("rejected", I rejected);
        ("failed", I failed);
        ("breaker", S (Option.value (breaker_now ()) ~default:"none"));
      ]
  in
  let failures = ref [] in
  let need cond msg = if not cond then failures := ("breaker: " ^ msg) :: !failures in
  (* Phase 1: clean traffic, breaker stays closed. *)
  let reqs n = List.init n (fun i -> if i mod 2 = 0 then Svc.Insert (i, i) else Svc.Find i) in
  phase_row "clean" (count_outcomes (reqs 40));
  need (breaker_now () = Some "closed") "not closed after clean traffic";
  (* Phase 2: stall storm; the latency threshold trips the breaker. *)
  FMem.install stall_plan;
  let n_stalled = ref 0 in
  while breaker_now () <> Some "open" && !n_stalled < 200 do
    ignore (call (Svc.Insert (!n_stalled, 1)));
    incr n_stalled
  done;
  phase_row (Printf.sprintf "stalled (%d calls)" !n_stalled) (0, 0, 0);
  need (breaker_now () = Some "open") "did not open under the stall storm";
  (* While open: reads still served (read-only degraded mode), writes
     rejected as rejections. *)
  let read_outcome = call (Svc.Find 1) in
  let write_outcome = call (Svc.Insert (9999, 1)) in
  need
    (match read_outcome with Svc.Served _ -> true | _ -> false)
    "read not served while open";
  need
    (write_outcome = Svc.Rejected Svc.Write_degraded)
    "write not rejected as write-degraded while open";
  need ((Svc.stats svc).mode = "read-only") "mode not read-only while open";
  phase_row "open (degraded)"
    ( (match read_outcome with Svc.Served _ -> 1 | _ -> 0),
      (match write_outcome with Svc.Rejected _ -> 1 | _ -> 0),
      0 );
  (* Phase 3: remove the plan, cool down, probe, recover. *)
  FMem.uninstall ();
  Unix.sleepf 0.06;
  let probes = ref 0 in
  while breaker_now () <> Some "closed" && !probes < 50 do
    ignore (call (Svc.Find !probes));
    incr probes
  done;
  phase_row (Printf.sprintf "recovered (%d probes)" !probes) (0, 0, 0);
  need (breaker_now () = Some "closed") "did not re-close after the stall plan was removed";
  let st = Svc.stats svc in
  let states = List.map snd st.transitions in
  need
    (states = [ "open"; "half-open"; "closed" ]
    || (List.mem "open" states && List.mem "closed" states))
    (Printf.sprintf "unexpected transition sequence [%s]"
       (String.concat "; " states));
  List.iter
    (fun (tick, state) ->
      Bench_json.emit_part ~exp:"exp20" ~part:"breaker"
        Bench_json.[ ("phase", S "transition"); ("tick", I tick); ("state", S state) ])
    st.transitions;
  Tables.note "transitions: %s"
    (String.concat " -> "
       (List.map (fun (_, s) -> s) st.transitions));
  !failures

let run () =
  Tables.section
    "EXP-20  Overload robustness: deadlines, shedding, budgets, breaker";
  let clock = Clock.real () in
  let capacity = part_a ~clock in
  let fb = part_b ~clock ~capacity in
  let fc = part_c ~clock ~capacity in
  let fd = part_d ~clock in
  let failures = fb @ fc @ fd in
  (match failures with
  | [] ->
      Tables.note
        "PASS: shedding+budgets hold goodput under overload, the budget";
      Tables.note
        "caps retry amplification, and the breaker opens and recovers."
  | fs ->
      List.iter (fun f -> Tables.note "FAIL: %s" f) fs;
      Tables.note "acceptance criteria NOT met (see rows above)");
  failures = []
