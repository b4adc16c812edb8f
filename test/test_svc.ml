(* The service layer (lib/svc, DESIGN.md §10): breaker state-machine
   transitions, retry-budget conservation (tokens spent = retries
   issued), the shedding invariant (no admitted operation executes past
   its deadline), degraded modes through the pipeline, the coalesced
   batch path, chaos integration (rejections reported, never dropped),
   and decision-log determinism under the manual clock. *)

module Svc = Lf_svc.Svc
module Clock = Lf_svc.Clock
module Deadline = Lf_svc.Deadline
module Retry = Lf_svc.Retry
module Breaker = Lf_svc.Breaker
module Shed = Lf_svc.Shed
module Degrade = Lf_svc.Degrade
module Runner = Lf_workload.Runner
module Opgen = Lf_workload.Opgen
module Fault = Lf_fault.Fault
module FP = Lf_kernel.Fault_point

let outcome =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Svc.outcome_to_string o))
    ( = )

(* --- Breaker transitions (pure state machine) ------------------------ *)

(* The full cycle under hand-driven ticks: [min_calls] failures trip it
   open; admissions are rejected until [open_for] has elapsed, then the
   next admission is a probe (half-open).  From there, [probes]
   consecutive successes close it — or, on the [fail_probe] branch, one
   probe failure re-opens it. *)
let test_breaker_cycle =
  Support.qcheck ~count:200 "breaker: open -> half-open -> closed / re-open"
    QCheck2.Gen.(triple (1 -- 4) (1 -- 8) bool)
    (fun (probes, min_calls, fail_probe) ->
      let cfg =
        Breaker.config ~window:1_000_000 ~min_calls ~failure_pct:50
          ~open_for:10 ~probes ()
      in
      let b = ref (Breaker.create cfg ~now:0) in
      let ok = ref (Breaker.state !b = Breaker.Closed) in
      let expect what cond = if not cond then (ok := false; ignore what) in
      for _ = 1 to min_calls do
        b := Breaker.observe !b ~now:1 ~ok:false ~latency:1
      done;
      expect "tripped" (Breaker.state !b = Breaker.Open);
      (* Still open: rejected at the door. *)
      let b1, v1 = Breaker.admit !b ~now:2 in
      b := b1;
      expect "rejects while open" (v1 = `Reject);
      (* Cool-down elapsed: the next admission is a probe. *)
      let b2, v2 = Breaker.admit !b ~now:100 in
      b := b2;
      expect "probes after open_for" (v2 = `Probe);
      expect "half-open" (Breaker.state !b = Breaker.Half_open);
      if fail_probe then begin
        b := Breaker.observe !b ~now:101 ~ok:false ~latency:1;
        expect "probe failure re-opens" (Breaker.state !b = Breaker.Open);
        let _, v = Breaker.admit !b ~now:102 in
        expect "re-open rejects" (v = `Reject)
      end
      else begin
        for i = 1 to probes do
          let b', v = Breaker.admit !b ~now:(100 + i) in
          b := b';
          expect "probe admission" (v = `Probe);
          b := Breaker.observe !b ~now:(100 + i) ~ok:true ~latency:1
        done;
        expect "closed after probes" (Breaker.state !b = Breaker.Closed);
        let _, v = Breaker.admit !b ~now:200 in
        expect "closed admits" (v = `Admit)
      end;
      !ok)

let test_breaker_latency_trips () =
  (* Slow successes count as failures: the stall-storm detector. *)
  let cfg =
    Breaker.config ~window:1000 ~min_calls:3 ~failure_pct:50
      ~latency_threshold:10 ~open_for:50 ~probes:1 ()
  in
  let b = ref (Breaker.create cfg ~now:0) in
  for i = 1 to 3 do
    b := Breaker.observe !b ~now:i ~ok:true ~latency:50
  done;
  Alcotest.(check string)
    "slow successes open the breaker" "open"
    (Breaker.kind_to_string (Breaker.state !b))

(* Window rotation and realignment against a plain reference: the model
   keeps every closed-state observation since the last reset as a
   (tick, failed) list, and the live window at [now] is the entries whose
   bucket, counted in [window]-wide steps from the reset tick, is
   [now]'s bucket or the one before it.  Ticks jump by up to three
   windows, so scripts cross bucket edges, skip whole buckets, and trip,
   probe and re-close the breaker. *)
type model_st = M_closed | M_open of int | M_half of int

let test_breaker_window_model =
  Support.qcheck ~count:300 "breaker: two-bucket window matches a list model"
    QCheck2.Gen.(
      int_range 2 20 >>= fun window ->
      let step =
        triple
          (frequency [ (4, int_bound 3); (1, int_bound (3 * window)) ])
          (frequency [ (3, return true); (1, return false) ])
          (int_bound 20)
      in
      pair
        (quad (return window) (int_range 1 6) (int_range 20 80)
           (pair (int_range 1 30) (int_range 1 3)))
        (list_size (int_bound 120) step))
    (fun ((window, min_calls, failure_pct, (open_for, probes)), script) ->
      let threshold = 10 in
      let cfg =
        Breaker.config ~window ~min_calls ~failure_pct
          ~latency_threshold:threshold ~open_for ~probes ()
      in
      let b = ref (Breaker.create cfg ~now:0) in
      let m = ref M_closed and origin = ref 0 and obs = ref [] in
      let live now =
        let cur = (now - !origin) / window in
        List.filter (fun (tick, _) -> (tick - !origin) / window >= cur - 1) !obs
      in
      let kind = function
        | M_closed -> Breaker.Closed
        | M_open _ -> Breaker.Open
        | M_half _ -> Breaker.Half_open
      in
      let now = ref 0 and agree = ref true in
      List.iter
        (fun (dt, ok, latency) ->
          now := !now + dt;
          let now = !now in
          let b', verdict = Breaker.admit !b ~now in
          b := b';
          (match !m with
          | M_open until when now >= until -> m := M_half 0
          | _ -> ());
          if verdict <> `Reject then begin
            b := Breaker.observe !b ~now ~ok ~latency;
            let failed = (not ok) || latency > threshold in
            match !m with
            | M_open _ -> ()
            | M_half n ->
                if failed then m := M_open (now + open_for)
                else if n + 1 >= probes then begin
                  m := M_closed;
                  origin := now;
                  obs := []
                end
                else m := M_half (n + 1)
            | M_closed ->
                obs := (now, failed) :: !obs;
                let w = live now in
                let calls = List.length w in
                let fails = List.length (List.filter snd w) in
                if calls >= min_calls && fails * 100 >= failure_pct * calls then
                  m := M_open (now + open_for)
          end;
          let w = live now in
          if
            Breaker.state !b <> kind !m
            || Breaker.window_calls !b ~now <> List.length w
            || Breaker.window_failures !b ~now
               <> List.length (List.filter snd w)
          then agree := false)
        script;
      !agree)

(* Words allocated while [f] runs: minor words plus words allocated
   directly in the major heap (major words that were not promoted from
   the minor heap).  Large blocks skip the minor heap, so
   [Gc.minor_words] alone cannot see them. *)
let words_during f =
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  f ();
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  m1 -. m0
  +. (s1.Gc.major_words -. s0.Gc.major_words)
  -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)

(* A closed-state observation is two counters and a record: it must not
   copy anything proportional to the window's history. *)
let test_breaker_observe_alloc () =
  let n = 10_000 in
  let cfg = Breaker.config ~window:100 ~min_calls:10 ~failure_pct:50 () in
  let b = ref (Breaker.create cfg ~now:0) in
  let words =
    words_during (fun () ->
        for i = 1 to n do
          b := Breaker.observe !b ~now:i ~ok:true ~latency:(i land 63)
        done)
  in
  Alcotest.(check string) "still closed" "closed"
    (Breaker.kind_to_string (Breaker.state !b));
  let per_call = words /. float_of_int n in
  if per_call > 16. then
    Alcotest.failf "Breaker.observe allocates %.1f words/call (bar: 16)"
      per_call

(* The default, log-off pipeline formats nothing: no decision-log lines
   and no per-call strings.  What remains is the pipeline's own closures
   and outcome values (~80 words); formatting the admit and served log
   lines would add over 200 more. *)
let test_svc_call_alloc () =
  let n = 10_000 in
  let clock, advance = Clock.manual () in
  let ops =
    { Svc.insert = (fun _ _ -> true); delete = (fun _ -> true);
      find = (fun _ -> true) }
  in
  let svc = Svc.create (Svc.config ~clock ()) ops in
  let words =
    words_during (fun () ->
        for i = 1 to n do
          advance 1;
          ignore (Sys.opaque_identity (Svc.call svc (Svc.Find i)))
        done)
  in
  Alcotest.(check (list string)) "no decision log" [] (Svc.decision_log svc);
  let per_call = words /. float_of_int n in
  if per_call > 128. then
    Alcotest.failf "policy-free Svc.call allocates %.1f words/call (bar: 128)"
      per_call

(* --- Retry budget: conservation -------------------------------------- *)

let test_budget_conservation_pure =
  Support.qcheck ~count:300 "budget: grants = min(takes, capacity) = spent"
    QCheck2.Gen.(pair (0 -- 20) (0 -- 60))
    (fun (capacity, takes) ->
      let b =
        ref
          (Retry.Budget.create
             (Retry.Budget.config ~capacity ~refill_every:0 ())
             ~now:0)
      in
      let granted = ref 0 in
      for _ = 1 to takes do
        let b', ok = Retry.Budget.take !b ~now:0 in
        b := b';
        if ok then incr granted
      done;
      !granted = min takes capacity && Retry.Budget.spent !b = !granted)

let test_budget_refill () =
  let cfg = Retry.Budget.config ~capacity:2 ~refill_every:10 () in
  let b = ref (Retry.Budget.create cfg ~now:0) in
  let take now =
    let b', ok = Retry.Budget.take !b ~now in
    b := b';
    ok
  in
  Alcotest.(check bool) "first" true (take 0);
  Alcotest.(check bool) "second" true (take 0);
  Alcotest.(check bool) "drained" false (take 0);
  Alcotest.(check bool) "refilled after a period" true (take 10);
  Alcotest.(check int) "spent counts only grants" 3 (Retry.Budget.spent !b);
  Alcotest.(check bool) "capped at capacity" true
    (Retry.Budget.tokens !b ~now:1_000_000 <= 2)

(* Conservation through the pipeline: with always-failing ops, every
   admitted call burns 1 + (granted retries) executions, so the ops
   counter, the stats and the budget must all agree. *)
let test_budget_conservation_svc =
  Support.qcheck ~count:100 "svc: executions = calls + retries; retries <= capacity"
    QCheck2.Gen.(pair (0 -- 40) (1 -- 5))
    (fun (capacity, calls) ->
      let clock, _ = Clock.manual () in
      let execs = ref 0 in
      let boom _ = incr execs; failwith "down" in
      let ops =
        { Svc.insert = (fun _ _ -> boom ()); delete = boom; find = boom }
      in
      let cfg =
        Svc.config ~clock
          ~retry:(Some (Retry.policy ~max_attempts:10 ~base_delay:0 ()))
          ~budget:(Retry.Budget.config ~capacity ~refill_every:0 ())
          ()
      in
      let svc = Svc.create cfg ops in
      for i = 1 to calls do
        ignore (Svc.call svc (Svc.Insert (i, i)))
      done;
      let st = Svc.stats svc in
      st.retries = min capacity (calls * 9)
      && !execs = st.calls + st.retries
      && st.calls = calls && st.served = 0 && st.failed = calls
      && (capacity >= calls * 9 || st.budget_denied > 0))

(* --- Shedding invariant ----------------------------------------------- *)

(* No admitted operation ever starts executing past its deadline — not
   on admission (dead-on-arrival is a rejection, the ops closure is
   never entered) and not on a retry attempt after backoff pushed the
   clock over the line.  The backoff here IS the clock's advance
   function, so retries genuinely consume deadline time. *)
let test_shed_invariant =
  Support.qcheck ~count:150 "no admitted op executes past its deadline"
    QCheck2.Gen.(
      pair (0 -- 1000)
        (list_size (int_bound 40) (pair (int_bound 5) (int_range (-3) 8))))
    (fun (seed, script) ->
      let clock, advance = Clock.manual () in
      let violated = ref false in
      let current_dl = ref Deadline.none in
      let execs = ref 0 in
      let fail_rng = Lf_kernel.Splitmix.create seed in
      let exec () =
        incr execs;
        if Deadline.expired ~now:(Clock.now clock) !current_dl then
          violated := true;
        if Lf_kernel.Splitmix.bool fail_rng then failwith "flaky" else true
      in
      let ops =
        {
          Svc.insert = (fun _ _ -> exec ());
          delete = (fun _ -> exec ());
          find = (fun _ -> exec ());
        }
      in
      let cfg =
        Svc.config ~clock ~seed
          ~retry:(Some (Retry.policy ~max_attempts:4 ~base_delay:3 ~max_delay:12 ()))
          ~budget:(Retry.Budget.config ~capacity:1000 ~refill_every:0 ())
          ~shed:(Some (Shed.config ~max_queue:4 ~est_init:1 ()))
          ~backoff:advance ()
      in
      let svc = Svc.create cfg ops in
      let ok = ref true in
      List.iter
        (fun (adv, off) ->
          advance adv;
          let nowt = Clock.now clock in
          let dl = Deadline.at (max 0 (nowt + off)) in
          current_dl := dl;
          let expired_now = Deadline.expired ~now:nowt dl in
          let before = !execs in
          match Svc.call svc ~deadline:dl (Svc.Insert (nowt land 15, 0)) with
          | Svc.Rejected r ->
              (* A rejection must not have executed anything... *)
              if !execs <> before then ok := false;
              (* ...and dead-on-arrival must be refused as Expired. *)
              if expired_now && r <> Svc.Expired then ok := false
          | Svc.Served _ | Svc.Served_stale _ | Svc.Failed _ ->
              if expired_now then ok := false)
        script;
      !ok && not !violated)

let test_shed_rejects () =
  let clock, _ = Clock.manual () in
  let execs = ref 0 in
  let ops =
    {
      Svc.insert = (fun _ _ -> incr execs; true);
      delete = (fun _ -> incr execs; true);
      find = (fun _ -> incr execs; true);
    }
  in
  let cfg =
    Svc.config ~clock
      ~shed:(Some (Shed.config ~max_queue:2 ~est_init:1000 ~workers:1 ()))
      ()
  in
  let svc = Svc.create cfg ops in
  Alcotest.check outcome "deep queue is shed"
    (Svc.Rejected Svc.Queue_full)
    (Svc.call svc ~queue_depth:5 (Svc.Find 1));
  Alcotest.check outcome "infeasible deadline is doomed"
    (Svc.Rejected Svc.Doomed)
    (Svc.call svc ~deadline:(Deadline.at 10) ~queue_depth:0 (Svc.Find 1));
  Alcotest.(check int) "neither executed" 0 !execs;
  let st = Svc.stats svc in
  Alcotest.(check int) "both counted as calls" 2 st.calls;
  Alcotest.(check (list (pair string int)))
    "rejections itemized by reason"
    [ ("expired", 0); ("queue-full", 1); ("doomed", 1); ("breaker-open", 0);
      ("write-degraded", 0) ]
    st.rejected

(* --- Degraded modes through the pipeline ------------------------------ *)

let test_breaker_through_svc () =
  let clock, advance = Clock.manual () in
  let failing = ref true in
  let primary_writes = ref 0 in
  let maybe_boom () =
    incr primary_writes;
    if !failing then failwith "boom" else true
  in
  let primary =
    {
      Svc.insert = (fun _ _ -> maybe_boom ());
      delete = (fun _ -> maybe_boom ());
      find = (fun _ -> true);
    }
  in
  let cfg =
    Svc.config ~clock ~seed:7
      ~breaker:
        (Some
           (Breaker.config ~window:1000 ~min_calls:3 ~failure_pct:50
              ~open_for:50 ~probes:2 ()))
      ~log_decisions:true ()
  in
  let svc = Svc.create cfg primary in
  (* Three failed writes trip the breaker. *)
  for i = 1 to 3 do
    advance 1;
    ignore (Svc.call svc (Svc.Insert (i, i)))
  done;
  let st = Svc.stats svc in
  Alcotest.(check (option string)) "breaker open" (Some "open") st.breaker;
  Alcotest.(check string) "read-only mode" "read-only" st.mode;
  (* Read-only degrade: writes rejected AS rejections, reads served. *)
  Alcotest.check outcome "write refused while open"
    (Svc.Rejected Svc.Write_degraded)
    (Svc.call svc (Svc.Insert (9, 9)));
  Alcotest.check outcome "read served while open" (Svc.Served true)
    (Svc.call svc (Svc.Find 1));
  (* Recovery: cool-down passes, the fault clears, probes run on the
     primary (the default half-open mode is normal), and two successes
     close the breaker. *)
  failing := false;
  advance 100;
  let writes_before = !primary_writes in
  Alcotest.check outcome "probe 1" (Svc.Served true)
    (Svc.call svc (Svc.Insert (10, 10)));
  let st = Svc.stats svc in
  Alcotest.(check (option string)) "probing" (Some "half-open") st.breaker;
  Alcotest.(check string) "normal mode while half-open" "normal" st.mode;
  Alcotest.check outcome "probe 2" (Svc.Served true)
    (Svc.call svc (Svc.Insert (11, 11)));
  Alcotest.(check int) "the primary took both probes" 2
    (!primary_writes - writes_before);
  let st = Svc.stats svc in
  Alcotest.(check (option string)) "breaker closed" (Some "closed") st.breaker;
  Alcotest.(check (list string))
    "transition trace"
    [ "open"; "half-open"; "closed" ]
    (List.map snd st.transitions);
  Alcotest.(check int) "degraded serve counted (the read while open)" 1
    st.served_degraded;
  Alcotest.(check bool) "decision log recorded" true
    (Svc.decision_log svc <> [])

(* --- The coalesced batch path ----------------------------------------- *)

let hashtbl_ops () =
  let h = Hashtbl.create 64 in
  let insert k v =
    if Hashtbl.mem h k then false else (Hashtbl.replace h k v; true)
  in
  let delete k =
    if Hashtbl.mem h k then (Hashtbl.remove h k; true) else false
  in
  let find k = Hashtbl.mem h k in
  ({ Svc.insert; delete; find }, h)

let test_call_many_coalesce () =
  let clock, advance = Clock.manual () in
  let ops, _ = hashtbl_ops () in
  let batch_calls = ref 0 in
  let batched =
    {
      Svc.insert_batch =
        (fun kvs -> incr batch_calls; List.map (fun (k, v) -> ops.Svc.insert k v) kvs);
      delete_batch = (fun ks -> incr batch_calls; List.map ops.Svc.delete ks);
      find_batch = (fun ks -> incr batch_calls; List.map ops.Svc.find ks);
    }
  in
  let cfg = Svc.config ~clock ~coalesce_min:8 () in
  let svc = Svc.create ~batched cfg ops in
  (* Below the threshold: one-by-one through [call]. *)
  let r1 = Svc.call_many svc [ Svc.Find 0; Svc.Insert (1, 1); Svc.Find 1 ] in
  Alcotest.(check int) "short list stays unbatched" 0 !batch_calls;
  Alcotest.(check (list outcome))
    "unbatched results"
    [ Svc.Served false; Svc.Served true; Svc.Served true ]
    r1;
  (* At the threshold: partitioned through the batched entry points,
     results returned in input order. *)
  let reqs =
    [
      Svc.Insert (2, 2); Svc.Insert (3, 3); Svc.Delete 1; Svc.Find 2;
      Svc.Find 9; Svc.Insert (2, 9); Svc.Delete 9; Svc.Find 3;
    ]
  in
  let r2 = Svc.call_many svc reqs in
  Alcotest.(check int) "three kind-batches" 3 !batch_calls;
  Alcotest.(check (list outcome))
    "batched results in input order"
    [
      Svc.Served true; Svc.Served true; Svc.Served true; Svc.Served true;
      Svc.Served false; Svc.Served false; Svc.Served false; Svc.Served true;
    ]
    r2;
  (* Per-element admission still applies on the batched path. *)
  let expired = Deadline.at 0 in
  advance 1;
  let r3 =
    Svc.call_many svc ~deadline:expired
      (List.init 8 (fun i -> Svc.Find i))
  in
  Alcotest.(check (list outcome))
    "expired batch elements rejected, not executed"
    (List.init 8 (fun _ -> Svc.Rejected Svc.Expired))
    r3

(* --- Batch paths report per-key outcomes, never one collapsed error --- *)

let test_call_many_partial_failure () =
  let clock, _ = Clock.manual () in
  let ops, _ = hashtbl_ops () in
  (* Key 13's backend is down; every other key must still get its own
     honest outcome, in input order, one per request. *)
  let poisoned =
    {
      ops with
      Svc.insert =
        (fun k v -> if k = 13 then failwith "shard down" else ops.Svc.insert k v);
      find = (fun k -> if k = 13 then failwith "shard down" else ops.Svc.find k);
    }
  in
  let cfg = Svc.config ~clock ~retryable:(fun _ -> false) () in
  let svc = Svc.create cfg poisoned in
  let reqs =
    [ Svc.Insert (1, 1); Svc.Insert (13, 13); Svc.Insert (2, 2); Svc.Find 13;
      Svc.Find 1 ]
  in
  let out = Svc.call_many svc reqs in
  Alcotest.(check int) "one outcome per request" (List.length reqs)
    (List.length out);
  (match out with
  | [ Svc.Served true; Svc.Failed _; Svc.Served true; Svc.Failed _;
      Svc.Served true ] ->
      ()
  | _ ->
      Alcotest.failf "per-key outcomes wrong or collapsed: [%s]"
        (String.concat "; " (List.map Svc.outcome_to_string out)));
  let st = Svc.stats svc in
  Alcotest.(check int) "no silent drops: calls = requests" (List.length reqs)
    st.calls;
  Alcotest.(check int) "failures counted, not hidden" 2 st.failed

(* --- The wire protocol (pure parse/format) ---------------------------- *)

module Wire = Lf_svc.Wire

let cmd_ok s =
  match Wire.parse s with
  | Ok c -> c
  | Error e -> Alcotest.failf "parse %S: ERR %s" s e

let cmd_err s =
  match Wire.parse s with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  | Error e -> e

let test_wire_batches () =
  (match cmd_ok "MGET 1 2 3" with
  | Wire.Multi [ Svc.Find 1; Svc.Find 2; Svc.Find 3 ] -> ()
  | _ -> Alcotest.fail "MGET parsed wrong");
  (match cmd_ok "mset 1 10 2 20" with
  | Wire.Multi [ Svc.Insert (1, 10); Svc.Insert (2, 20) ] -> ()
  | _ -> Alcotest.fail "MSET parsed wrong");
  (match cmd_ok "KILL 2" with
  | Wire.Kill 2 -> ()
  | _ -> Alcotest.fail "KILL parsed wrong");
  (* A full batch is fine; one more key is refused at the door. *)
  let mget n =
    String.concat " " ("MGET" :: List.init n string_of_int)
  in
  (match cmd_ok (mget Wire.max_batch) with
  | Wire.Multi reqs ->
      Alcotest.(check int) "full batch accepted" Wire.max_batch
        (List.length reqs)
  | _ -> Alcotest.fail "full batch parsed wrong");
  Alcotest.(check string) "oversized batch" "batch too large (max 64)"
    (cmd_err (mget (Wire.max_batch + 1)));
  Alcotest.(check string) "empty MGET" "empty batch" (cmd_err "MGET");
  Alcotest.(check string) "empty MSET" "empty batch" (cmd_err "MSET");
  Alcotest.(check string) "duplicate MGET key" "duplicate key 5"
    (cmd_err "MGET 1 5 3 5");
  Alcotest.(check string) "duplicate MSET key" "duplicate key 7"
    (cmd_err "MSET 7 1 7 2");
  Alcotest.(check string) "odd MSET args" "MSET wants key value pairs"
    (cmd_err "MSET 1 10 2");
  (match Wire.parse "MGET 1 x 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric key accepted")

let test_wire_format_multi () =
  Alcotest.(check string) "one token per key, input order"
    "MULTI 4 t f breaker-open failed"
    (Wire.format_multi
       [ Svc.Served true; Svc.Served false; Svc.Rejected Svc.Breaker_open;
         Svc.Failed "boom" ]);
  Alcotest.(check string) "empty outcome list" "MULTI 0 "
    (Wire.format_multi [])

(* The staleness contract on the wire: a replica-served read is always
   an explicit STALE line (single op) or stale:* token (batch) carrying
   its lag — never formatted as a fresh answer. *)
let test_wire_stale_and_heal_verbs () =
  (match cmd_ok "REPLICAS" with
  | Wire.Replicas -> ()
  | _ -> Alcotest.fail "REPLICAS parsed wrong");
  (match cmd_ok "heal" with
  | Wire.Heal -> ()
  | _ -> Alcotest.fail "HEAL parsed wrong");
  ignore (cmd_err "REPLICAS 1");
  ignore (cmd_err "HEAL now");
  Alcotest.(check string) "stale single-op line" "STALE true lag=3"
    (Wire.format_outcome (Svc.Served_stale (true, 3)));
  Alcotest.(check string) "stale miss keeps the tag" "STALE false lag=0"
    (Wire.format_outcome (Svc.Served_stale (false, 0)));
  Alcotest.(check string) "stale batch tokens carry the lag"
    "MULTI 3 stale:t:3 stale:f:0 t"
    (Wire.format_multi
       [ Svc.Served_stale (true, 3); Svc.Served_stale (false, 0);
         Svc.Served true ])

(* --- Chaos through the full pipeline (EXP-18 meets EXP-20) ------------ *)

module K = Lf_kernel.Ordered.Int
module FMem = Lf_fault.Fault_mem.Make (Lf_kernel.Atomic_mem)
module FS = Lf_skiplist.Fr_skiplist.Make (K) (FMem)

(* A stall plan on lane 0 slows the structure under two chaos lanes while
   every operation runs through the Svc pipeline.  The service must keep
   the survivors productive, never raise out of a lane (Crashed is
   absorbed into retries/Failed), and account for every single call:
   served + failed + rejected = calls, with rejections itemized. *)
let test_chaos_through_svc () =
  let t = FS.create () in
  let clock = Clock.real () in
  let rejections = Atomic.make 0 in
  let ms n = Clock.ms clock n in
  let cfg =
    Svc.config ~clock ~seed:5 ~deadline:(ms 50)
      ~retry:(Some (Retry.policy ~max_attempts:3 ~base_delay:(ms 1 / 4) ()))
      ~budget:(Retry.Budget.config ~capacity:200 ~refill_every:(ms 10) ())
      ~breaker:
        (Some
           (Breaker.config ~window:(ms 100) ~min_calls:8 ~failure_pct:50
              ~open_for:(ms 10) ~probes:2 ()))
      ~shed:(Some (Shed.config ~max_queue:64 ~est_init:(ms 1) ()))
      ~retryable:(function Fault.Crashed _ -> true | _ -> false)
      ()
  in
  let svc =
    Svc.create cfg
      {
        Svc.insert = (fun k v -> FS.insert t k v);
        delete = (fun k -> FS.delete t k);
        find = (fun k -> FS.find t k <> None);
      }
  in
  let to_bool = function
    | Svc.Served b | Svc.Served_stale (b, _) -> b
    | Svc.Rejected _ -> Atomic.incr rejections; false
    | Svc.Failed _ -> false
  in
  let plan =
    Fault.make_plan ~seed:23
      [
        { Fault.point = FP.Any_cas; action = Stall 64; mode = Rate (0.05, 2);
          lane = Some 0 };
      ]
  in
  FMem.install plan;
  let report =
    Fun.protect ~finally:FMem.uninstall (fun () ->
        Runner.run_chaos ~window_s:0.1 ~budget_s:1.0 ~name:"svc+stall"
          ~insert:(fun k -> to_bool (Svc.call svc (Svc.Insert (k, k))))
          ~delete:(fun k -> to_bool (Svc.call svc (Svc.Delete k)))
          ~find:(fun k -> to_bool (Svc.call svc (Svc.Find k)))
          ~domains:2 ~key_range:256 ~mix:Opgen.mixed ~seed:5 ())
  in
  let st = Svc.stats svc in
  let total_rejected =
    List.fold_left (fun acc (_, n) -> acc + n) 0 st.rejected
  in
  Alcotest.(check int) "every call accounted for" st.calls
    (st.served + st.failed + total_rejected);
  Alcotest.(check int) "rejections reported, never dropped"
    (Atomic.get rejections) total_rejected;
  Alcotest.(check (list int)) "no lane crashed out" [] report.c_crashed;
  Alcotest.(check bool) "survivors made progress" true
    (report.Runner.c_survivor_ops > 0)

(* --- Decision-log determinism ----------------------------------------- *)

(* The whole admit/reject/retry sequence is a pure function of (seed,
   clock reads): two services built the same way, driven through the
   same script on fresh manual clocks, must produce identical decision
   logs — jittered retry delays included. *)
let run_decisions seed =
  let clock, advance = Clock.manual () in
  let fail_rng = Lf_kernel.Splitmix.create 0xbad5eed in
  let exec () = if Lf_kernel.Splitmix.int fail_rng 3 = 0 then failwith "flaky" else true in
  let ops =
    {
      Svc.insert = (fun _ _ -> exec ());
      delete = (fun _ -> exec ());
      find = (fun _ -> exec ());
    }
  in
  let cfg =
    Svc.config ~clock ~seed
      ~retry:(Some (Retry.policy ~max_attempts:3 ~base_delay:5 ~max_delay:40 ()))
      ~budget:(Retry.Budget.config ~capacity:30 ~refill_every:7 ())
      ~breaker:
        (Some
           (Breaker.config ~window:500 ~min_calls:4 ~failure_pct:50
              ~open_for:20 ~probes:2 ()))
      ~shed:(Some (Shed.config ~max_queue:8 ~est_init:2 ()))
      ~backoff:advance ~log_decisions:true ()
  in
  let svc = Svc.create cfg ops in
  for i = 1 to 60 do
    advance (i mod 4);
    let req =
      match i mod 3 with
      | 0 -> Svc.Insert (i land 31, i)
      | 1 -> Svc.Delete (i land 31)
      | _ -> Svc.Find (i land 31)
    in
    let dl =
      if i mod 5 = 0 then Deadline.at (Clock.now clock + 6) else Deadline.none
    in
    ignore (Svc.call svc ~deadline:dl ~queue_depth:(i mod 10) req)
  done;
  Svc.decision_log svc

let test_decision_determinism =
  Support.qcheck ~count:30 "same seed => same decision log"
    QCheck2.Gen.(0 -- 10_000)
    (fun seed -> run_decisions seed = run_decisions seed)

let () =
  Alcotest.run "svc"
    [
      ( "breaker",
        [
          test_breaker_cycle;
          Alcotest.test_case "latency threshold trips" `Quick
            test_breaker_latency_trips;
          test_breaker_window_model;
          Alcotest.test_case "closed-state observe allocation budget" `Quick
            test_breaker_observe_alloc;
          Alcotest.test_case "log-off Svc.call allocation budget" `Quick
            test_svc_call_alloc;
        ] );
      ( "budget",
        [
          test_budget_conservation_pure;
          Alcotest.test_case "refill" `Quick test_budget_refill;
          test_budget_conservation_svc;
        ] );
      ( "shedding",
        [
          test_shed_invariant;
          Alcotest.test_case "queue and doomed rejections" `Quick
            test_shed_rejects;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "breaker lifecycle through the pipeline" `Quick
            test_breaker_through_svc;
          Alcotest.test_case "coalesced batches" `Quick test_call_many_coalesce;
          Alcotest.test_case "partial failure: per-key outcomes" `Quick
            test_call_many_partial_failure;
        ] );
      ( "wire",
        [
          Alcotest.test_case "MGET/MSET/KILL parse + malformed batches" `Quick
            test_wire_batches;
          Alcotest.test_case "MULTI formatting" `Quick test_wire_format_multi;
          Alcotest.test_case "STALE tokens + REPLICAS/HEAL verbs" `Quick
            test_wire_stale_and_heal_verbs;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "stall plan through the full pipeline" `Quick
            test_chaos_through_svc;
        ] );
      ( "determinism",
        [ test_decision_determinism ] );
    ]
