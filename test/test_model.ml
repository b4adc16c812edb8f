(* Tests for the DPOR stateless model checker (lib/model): the engine on
   micro-scenarios with known answers, agreement with the naive explorer,
   failure replay, the structure certification layer, the seeded-mutant
   kill gate at minimal scope, and byte-determinism of the reports. *)

module Sim = Lf_dsim.Sim
module SM = Lf_dsim.Sim_mem
module Explore = Lf_dsim.Explore
module Dpor = Lf_model.Dpor
module Certify = Lf_model.Certify
module Ev = Lf_kernel.Mem_event

(* --- The engine on micro-scenarios --- *)

let racy_counter_mk () =
  (* Non-atomic increment: read then blind write; some interleaving loses
     an update. *)
  let r = SM.make 0 in
  let body _pid =
    for _ = 1 to 2 do
      let v = SM.get r in
      SM.set r (v + 1)
    done
  in
  let check () =
    let v = Sim.quiet (fun () -> SM.get r) in
    if v = 4 then Ok () else Error (Printf.sprintf "lost update: %d" v)
  in
  ([| body; body |], check)

let cas_counter_mk () =
  let r = SM.make 0 in
  let body _pid =
    for _ = 1 to 2 do
      let rec incr_once () =
        let v = SM.get r in
        if not (SM.cas r ~kind:Ev.Other_cas ~expect:v (v + 1)) then incr_once ()
      in
      incr_once ()
    done
  in
  let check () =
    let v = Sim.quiet (fun () -> SM.get r) in
    if v = 4 then Ok () else Error (Printf.sprintf "bad count: %d" v)
  in
  ([| body; body |], check)

let test_finds_lost_update () =
  (* Many distinct schedules lose an update; with an unbounded failure
     budget the search must still drain. *)
  let res = Dpor.run ~max_failures:max_int racy_counter_mk in
  Alcotest.(check bool) "found the lost update" true (res.failures <> []);
  Alcotest.(check bool) "exhausted" false res.truncated

let test_cas_counter_safe () =
  let res = Dpor.run cas_counter_mk in
  Alcotest.(check int) "no failures" 0 (List.length res.failures);
  Alcotest.(check bool) "exhausted" false res.truncated;
  Alcotest.(check bool) "explored more than one schedule" true
    (res.schedules_run > 1)

let test_independent_procs_one_schedule () =
  (* Two processes on distinct cells: every interleaving is in the same
     Mazurkiewicz trace, so DPOR needs exactly one schedule. *)
  let mk () =
    let a = SM.make 0 and b = SM.make 0 in
    let body pid =
      let r = if pid = 0 then a else b in
      for _ = 1 to 3 do
        let v = SM.get r in
        SM.set r (v + 1)
      done
    in
    ([| body; body |], fun () -> Ok ())
  in
  let res = Dpor.run mk in
  Alcotest.(check int) "one schedule" 1
    (res.schedules_run + res.sleep_set_prunes)

let test_same_value_writes_commute () =
  (* Two blind stores of the same immutable block (the backlink pattern):
     without the same-value refinement these are a race; with it, one
     schedule suffices. *)
  let v = Some 42 in
  let mk () =
    let r = SM.make None in
    let body _pid = SM.set r v in
    ([| body; body |], fun () -> Ok ())
  in
  let res = Dpor.run mk in
  Alcotest.(check int) "one schedule" 1
    (res.schedules_run + res.sleep_set_prunes)

let test_agrees_with_naive_dfs () =
  (* On a scope the naive explorer can exhaust, both must agree on the
     verdict, and DPOR must not replay more schedules. *)
  let mk = racy_counter_mk in
  let naive =
    Explore.run ~max_preemptions:max_int ~max_schedules:50_000
      ~max_failures:max_int mk
  in
  let dpor = Dpor.run ~max_failures:max_int mk in
  Alcotest.(check bool) "naive exhausted its space" false naive.truncated;
  Alcotest.(check bool) "both find the bug" true
    (naive.failures <> [] && dpor.Dpor.failures <> []);
  Alcotest.(check bool) "DPOR replays fewer schedules" true
    (Certify.replays dpor <= naive.schedules_run)

let test_failure_trace_replays () =
  let res = Dpor.run racy_counter_mk in
  match res.failures with
  | [] -> Alcotest.fail "expected a failure"
  | (trace, _) :: _ ->
      let _, verdict =
        Dpor.run_one ~max_steps:10_000 racy_counter_mk (Array.of_list trace)
      in
      Alcotest.(check bool) "reproduced" true (Result.is_error verdict)

let test_engine_deterministic () =
  let r1 = Dpor.run racy_counter_mk in
  let r2 = Dpor.run racy_counter_mk in
  Alcotest.(check bool) "identical outcomes" true (r1 = r2)

(* --- Explore.run failure reporting (dedupe + truncation) --- *)

let test_explore_failures_deduped () =
  (* The racy counter fails under many forced prefixes that replay to the
     same schedule; each distinct failing schedule must be reported once. *)
  let res = Explore.run ~max_preemptions:2 ~max_failures:1_000 racy_counter_mk in
  let traces =
    List.map
      (fun (prefix, _) ->
        let trace, _ =
          Explore.run_one ~max_steps:10_000 racy_counter_mk
            (Array.of_list prefix)
        in
        List.map (fun (_, c, _) -> c) trace)
      res.failures
  in
  let distinct = List.sort_uniq compare traces in
  Alcotest.(check int) "one report per distinct failing schedule"
    (List.length distinct) (List.length traces)

let test_explore_truncated_on_max_failures () =
  let res = Explore.run ~max_preemptions:2 ~max_failures:1 racy_counter_mk in
  Alcotest.(check int) "stopped at one failure" 1 (List.length res.failures);
  Alcotest.(check bool) "reported as truncated" true res.truncated

(* --- Structure certification --- *)

let scenario ~structure name =
  List.find
    (fun s -> s.Certify.sc_name = name)
    (Certify.scenarios ~structure ~quick:true ())

let certified structure name =
  let c = Certify.certify ~structure (scenario ~structure name) in
  (match c.ct_outcome.Dpor.failures with
  | [] -> ()
  | (trace, msg) :: _ ->
      Alcotest.failf "%s/%s failed under [%s]: %s" structure name
        (String.concat ";" (List.map string_of_int trace))
        msg);
  Alcotest.(check bool)
    (structure ^ " exhausted")
    false c.ct_outcome.Dpor.truncated;
  Alcotest.(check bool)
    (structure ^ " explored > 1 schedule")
    true
    (c.ct_outcome.Dpor.schedules_run > 1)

let test_certify_fr_list () = certified "fr-list" "2x2-conflict"
let test_certify_fr_skiplist () = certified "fr-skiplist" "2x2-conflict"
let test_certify_hashtable () = certified "lf-hashtable" "2x2-conflict"
let test_certify_pqueue () = certified "pqueue" "2x2-conflict"
let test_certify_harris () = certified "harris-list" "2x2-conflict"

let test_certify_fr_list_2x3 () = certified "fr-list" "2x3-mixed"

(* --- Mutant-kill gate --- *)

let test_mutants_killed_at_minimal_scope () =
  let expected =
    [
      ("skip-flag", "1p-delete");
      ("double-mark", "1p-delete");
      ("unlink-unflagged", "1p-delete");
      ("backlink-right", "1p-delete");
      ("no-help", "2p-deletes");
    ]
  in
  let matrix = Certify.kill_matrix () in
  Alcotest.(check bool) "all mutants killed" true (Certify.kills_ok matrix);
  List.iter
    (fun k ->
      let want = List.assoc k.Certify.k_mutation expected in
      match k.Certify.k_killed_at with
      | None -> Alcotest.failf "%s not killed" k.Certify.k_mutation
      | Some (scope, _, msg) ->
          Alcotest.(check string)
            (k.Certify.k_mutation ^ " minimal scope")
            want scope;
          Alcotest.(check bool)
            (k.Certify.k_mutation ^ " has a message")
            true (msg <> "");
          (* Minimality: every smaller scope was exhausted clean. *)
          List.iter
            (fun (s, n) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s survived %s" k.Certify.k_mutation s)
                true (n > 0))
            k.Certify.k_survived)
    matrix

(* --- Report determinism --- *)

let test_reports_byte_identical () =
  let render () =
    let cts =
      Certify.certify_all ~quick:true ~structures:[ "fr-list" ] ()
    in
    Certify.render_certificates ~json:false cts
    ^ Certify.render_certificates ~json:true cts
  in
  Alcotest.(check string) "byte-identical" (render ()) (render ())

let () =
  Alcotest.run "model"
    [
      ( "dpor engine",
        [
          Alcotest.test_case "finds lost update" `Quick test_finds_lost_update;
          Alcotest.test_case "cas counter safe" `Quick test_cas_counter_safe;
          Alcotest.test_case "independent procs: one schedule" `Quick
            test_independent_procs_one_schedule;
          Alcotest.test_case "same-value writes commute" `Quick
            test_same_value_writes_commute;
          Alcotest.test_case "agrees with naive DFS" `Slow
            test_agrees_with_naive_dfs;
          Alcotest.test_case "failure trace replays" `Quick
            test_failure_trace_replays;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
        ] );
      ( "explore reporting",
        [
          Alcotest.test_case "failures deduped" `Quick
            test_explore_failures_deduped;
          Alcotest.test_case "truncated on max_failures" `Quick
            test_explore_truncated_on_max_failures;
        ] );
      ( "certification",
        [
          Alcotest.test_case "fr-list conflict" `Slow test_certify_fr_list;
          Alcotest.test_case "fr-skiplist conflict" `Slow
            test_certify_fr_skiplist;
          Alcotest.test_case "hashtable conflict" `Slow test_certify_hashtable;
          Alcotest.test_case "pqueue conflict" `Slow test_certify_pqueue;
          Alcotest.test_case "harris conflict" `Slow test_certify_harris;
          Alcotest.test_case "fr-list 2x3" `Slow test_certify_fr_list_2x3;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "killed at minimal scope" `Slow
            test_mutants_killed_at_minimal_scope;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "reports byte-identical" `Slow
            test_reports_byte_identical;
        ] );
    ]
