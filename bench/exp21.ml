(* EXP-21: schedule counts at equal coverage — DPOR vs CHESS vs naive
   DFS (DESIGN.md §11).

   The claim behind lib/model: at small scope, partial-order reduction
   turns "we sampled schedules" into "we exhausted them", and does so in
   a number of replays the naive explorers cannot approach.  All three
   engines run the *same* scenario builders over the same seam, so the
   schedule counts are directly comparable:

   - DPOR (Dpor.run): explores one schedule per happens-before class,
     plus sleep-set prunes.  Exhausts the scope; its count is the number
     of replays needed for a certificate.

   - bounded CHESS (Explore.run, preemption budget 1 / 2): polynomial
     replay counts, but a budget is not a certificate — coverage stops at
     the budget boundary.

   - naive DFS (Explore.run with an unbounded preemption budget): the
     full decision tree, one schedule per interleaving.  Run with a cap
     of NAIVE_CAP_FACTOR x the DPOR replay count: if it is still
     truncated at the cap, the scope needs more than that factor times
     DPOR's replays, which is the acceptance floor on the ratio.

   Part B re-runs the fr-list mutant-kill ladder (the measured-coverage
   benchmark for the analysis itself) and records where each seeded
   protocol bug dies.

   PASS: DPOR exhausts the scope for fr-list and fr-skiplist; naive DFS
   does not exhaust it within NAIVE_CAP_FACTOR x DPOR's replays (so the
   replay ratio is at least that factor, which is >= 5); every seeded
   mutant is killed.  BENCH_exp21.json records both schedule counts per
   structure, plus the kill matrix. *)

module Certify = Lf_model.Certify
module Dpor = Lf_model.Dpor
module Explore = Lf_dsim.Explore

(* The acceptance scope is 2 processes x 3 ops each; --quick drops to the
   2x2 conflict scope (same engines, ~10x fewer replays). *)
let scope_name () = if !Bench_json.quick then "2x2-conflict" else "2x3-mixed"
let naive_cap_factor = 6
let max_steps = 200_000
let chess_cap = 200_000

let subjects = [ "fr-list"; "fr-skiplist" ]

type row = {
  engine : string;
  schedules : int;
  exhausted : bool;
  seconds : float;
}

let compare_structure structure =
  let scope = scope_name () in
  let sc =
    List.find
      (fun s -> s.Certify.sc_name = scope)
      (Certify.scenarios ~structure ~quick:true ())
  in
  let mk = Certify.mk ~structure sc in
  let timed f =
    let t0 = Lf_obs.Clock.(now Real) in
    let r = f () in
    (r, float_of_int (Lf_obs.Clock.(now Real) - t0) /. 1e9)
  in
  let dpor, dpor_s =
    timed (fun () -> Dpor.run ~max_schedules:chess_cap ~max_steps mk)
  in
  let dpor_replays = Certify.replays dpor in
  let chess p =
    let o, s =
      timed (fun () ->
          Explore.run ~max_preemptions:p ~max_schedules:chess_cap ~max_steps mk)
    in
    {
      engine = Printf.sprintf "chess-p%d" p;
      schedules = o.Explore.schedules_run;
      exhausted = not o.Explore.truncated;
      seconds = s;
    }
  in
  let naive_cap = naive_cap_factor * dpor_replays in
  let naive, naive_s =
    timed (fun () ->
        Explore.run ~max_preemptions:max_int ~max_schedules:naive_cap
          ~max_steps mk)
  in
  let rows =
    [
      {
        engine = "dpor";
        schedules = dpor_replays;
        exhausted = not dpor.Dpor.truncated;
        seconds = dpor_s;
      };
      chess 1;
      chess 2;
      {
        engine = "naive-dfs";
        schedules = naive.Explore.schedules_run;
        exhausted = not naive.Explore.truncated;
        seconds = naive_s;
      };
    ]
  in
  Printf.printf "\n%s @ %s (%d procs):\n" structure scope
    (List.length sc.Certify.sc_scripts);
  List.iter
    (fun r ->
      Printf.printf "  %-10s %8d schedules  %-22s %6.1fs\n" r.engine
        r.schedules
        (if r.exhausted then "exhausted"
         else if r.engine = "naive-dfs" then
           Printf.sprintf "TRUNCATED at %dx dpor" naive_cap_factor
         else "truncated (budget cover)")
        r.seconds;
      Bench_json.emit_part ~exp:"exp21" ~part:"compare"
        [
          ("structure", Bench_json.S structure);
          ("scope", Bench_json.S scope);
          ("engine", Bench_json.S r.engine);
          ("schedules", Bench_json.I r.schedules);
          ("exhausted", Bench_json.B r.exhausted);
          ("seconds", Bench_json.F r.seconds);
        ])
    rows;
  (* The acceptance ratio: exact when naive DFS finished, a floor when it
     hit the cap (the true ratio can only be larger). *)
  let ratio =
    float_of_int naive.Explore.schedules_run /. float_of_int dpor_replays
  in
  Printf.printf "  replay ratio naive/dpor %s %.1fx\n"
    (if naive.Explore.truncated then ">=" else "=")
    ratio;
  Bench_json.emit_part ~exp:"exp21" ~part:"ratio"
    [
      ("structure", Bench_json.S structure);
      ("scope", Bench_json.S scope);
      ("dpor_replays", Bench_json.I dpor_replays);
      ("naive_schedules", Bench_json.I naive.Explore.schedules_run);
      ("naive_exhausted", Bench_json.B (not naive.Explore.truncated));
      ("ratio_floor", Bench_json.F ratio);
    ];
  (not dpor.Dpor.truncated)
  && dpor.Dpor.failures = []
  && ratio >= 5.0

let mutant_part () =
  let kills = Certify.kill_matrix () in
  Printf.printf "\nmutant-kill ladder (fr-list):\n";
  List.iter
    (fun k ->
      (match k.Certify.k_killed_at with
      | Some (scope, replays, msg) ->
          Printf.printf "  %-17s killed at %-10s (%d replays): %s\n"
            k.Certify.k_mutation scope replays msg
      | None -> Printf.printf "  %-17s NOT KILLED\n" k.Certify.k_mutation);
      Bench_json.emit_part ~exp:"exp21" ~part:"mutants"
        [
          ("mutation", Bench_json.S k.Certify.k_mutation);
          ( "killed_scope",
            match k.Certify.k_killed_at with
            | Some (scope, _, _) -> Bench_json.S scope
            | None -> Bench_json.S "" );
          ( "replays_to_kill",
            match k.Certify.k_killed_at with
            | Some (_, n, _) -> Bench_json.I n
            | None -> Bench_json.I (-1) );
          ("survived_scopes", Bench_json.I (List.length k.Certify.k_survived));
          ("killed", Bench_json.B (k.Certify.k_killed_at <> None));
        ])
    kills;
  Certify.kills_ok kills

let run () =
  Printf.printf
    "\n=== EXP-21: DPOR vs CHESS vs naive DFS at equal coverage ===\n";
  Printf.printf
    "one scenario, three engines; counts are full schedule replays\n";
  let compare_ok = List.for_all compare_structure subjects in
  let mutants_ok = mutant_part () in
  let pass = compare_ok && mutants_ok in
  Printf.printf "\nEXP-21 %s (dpor exhausts >= 5x cheaper, mutants %s)\n"
    (if pass then "PASS" else "FAIL")
    (if mutants_ok then "all killed" else "NOT all killed");
  pass
