(* The service layer (lib/svc, DESIGN.md §10): breaker state-machine
   transitions, retry-budget conservation (tokens spent = retries
   issued), the shedding invariant (no admitted operation executes past
   its deadline), read-only degradation through the pipeline, per-key
   batch outcomes, chaos integration (rejections reported, never
   dropped), and decision-log determinism under the manual clock. *)

module Svc = Lf_svc.Svc
module Clock = Lf_svc.Clock
module Deadline = Lf_svc.Deadline
module Retry = Lf_svc.Retry
module Breaker = Lf_svc.Breaker
module Shed = Lf_svc.Shed
module Runner = Lf_workload.Runner
module Opgen = Lf_workload.Opgen
module Fault = Lf_fault.Fault
module FP = Lf_kernel.Fault_point

let outcome =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Svc.outcome_to_string o))
    ( = )

(* --- Breaker transitions (in-place state machine) -------------------- *)

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
      let b = Breaker.create cfg ~now:0 in
      let ok = ref (Breaker.state b = Breaker.Closed) in
      let expect what cond = if not cond then (ok := false; ignore what) in
      for _ = 1 to min_calls do
        Breaker.observe b ~now:1 ~ok:false ~latency:1
      done;
      expect "tripped" (Breaker.state b = Breaker.Open);
      (* Still open: rejected at the door. *)
      expect "rejects while open" (Breaker.admit b ~now:2 = `Reject);
      (* Cool-down elapsed: the next admission is a probe. *)
      expect "probes after open_for" (Breaker.admit b ~now:100 = `Probe);
      expect "half-open" (Breaker.state b = Breaker.Half_open);
      if fail_probe then begin
        Breaker.observe b ~now:101 ~ok:false ~latency:1;
        expect "probe failure re-opens" (Breaker.state b = Breaker.Open);
        expect "re-open rejects" (Breaker.admit b ~now:102 = `Reject)
      end
      else begin
        for i = 1 to probes do
          expect "probe admission" (Breaker.admit b ~now:(100 + i) = `Probe);
          Breaker.observe b ~now:(100 + i) ~ok:true ~latency:1
        done;
        expect "closed after probes" (Breaker.state b = Breaker.Closed);
        expect "closed admits" (Breaker.admit b ~now:200 = `Admit)
      end;
      !ok)

let test_breaker_latency_trips () =
  (* Slow successes count as failures: the stall-storm detector. *)
  let cfg =
    Breaker.config ~window:1000 ~min_calls:3 ~failure_pct:50
      ~latency_threshold:10 ~open_for:50 ~probes:1 ()
  in
  let b = Breaker.create cfg ~now:0 in
  for i = 1 to 3 do
    Breaker.observe b ~now:i ~ok:true ~latency:50
  done;
  Alcotest.(check string)
    "slow successes open the breaker" "open"
    (Breaker.kind_to_string (Breaker.state b))

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
      let b = Breaker.create cfg ~now:0 in
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
          let verdict = Breaker.admit b ~now in
          (match !m with
          | M_open until when now >= until -> m := M_half 0
          | _ -> ());
          if verdict <> `Reject then begin
            Breaker.observe b ~now ~ok ~latency;
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
            Breaker.state b <> kind !m
            || Breaker.window_calls b ~now <> List.length w
            || Breaker.window_failures b ~now
               <> List.length (List.filter snd w)
          then agree := false)
        script;
      !agree)

(* A closed-state observation bumps two counters in place, rotating the
   window every 100 ticks: it allocates nothing. *)
let test_breaker_observe_alloc () =
  let n = 10_000 in
  let cfg = Breaker.config ~window:100 ~min_calls:10 ~failure_pct:50 () in
  let b = Breaker.create cfg ~now:0 in
  let words =
    Support.words_during (fun () ->
        for i = 1 to n do
          Breaker.observe b ~now:i ~ok:true ~latency:(i land 63)
        done)
  in
  Alcotest.(check string) "still closed" "closed"
    (Breaker.kind_to_string (Breaker.state b));
  let per_call = words /. float_of_int n in
  if per_call > 0. then
    Alcotest.failf "Breaker.observe allocates %.1f words/call (bar: 0)"
      per_call

let always_true =
  { Svc.insert = (fun _ _ -> true); delete = (fun _ -> true);
    find = (fun _ -> true) }

(* Words per [Svc.call] of a fresh [Find] (2 of them are the request
   itself), over [n] calls one tick apart. *)
let call_words cfg advance =
  let n = 10_000 in
  let svc = Svc.create cfg always_true in
  let words =
    Support.words_during (fun () ->
        for i = 1 to n do
          advance 1;
          ignore (Sys.opaque_identity (Svc.call svc (Svc.Find i)))
        done)
  in
  (svc, words /. float_of_int n)

(* The default, log-off pipeline formats nothing and allocates nothing
   of its own: two critical sections locked by hand, no closures, and
   preallocated outcomes.  What remains is the request (2 words). *)
let test_svc_call_alloc () =
  let clock, advance = Clock.manual () in
  let svc, per_call = call_words (Svc.config ~clock ()) advance in
  Alcotest.(check (list string)) "no decision log" [] (Svc.decision_log svc);
  if per_call > 8. then
    Alcotest.failf "policy-free Svc.call allocates %.1f words/call (bar: 8)"
      per_call

(* What [lfdict serve --deadline-ms 100 --retry 3 --retry-budget 64
   --shed 256 --breaker] configures. *)
let serve_policies clock =
  let ms = Clock.ms clock in
  Svc.config ~clock ~deadline:(ms 100)
    ~retry:(Some (Retry.policy ~max_attempts:3 ~base_delay:(ms 1) ()))
    ~budget:(Retry.Budget.config ~capacity:64 ~refill_every:(ms 100) ())
    ~shed:(Some (Shed.config ~max_queue:256 ~est_init:(ms 1) ()))
    ~breaker:
      (Some
         (Breaker.config ~window:(ms 1000) ~latency_threshold:(ms 100)
            ~open_for:(ms 1000) ()))
    ()

(* The serve policy set (deadline, retry, budget, shed, breaker) updates
   its states in place, so it meets the policy-free bar: what remains is
   the caller's request box (2 words). *)
let test_svc_policy_call_alloc () =
  let clock, advance = Clock.manual () in
  let svc, per_call = call_words (serve_policies clock) advance in
  Alcotest.(check int) "every call served" 10_000 (Svc.stats svc).served;
  if per_call > 2. then
    Alcotest.failf "serve-policy Svc.call allocates %.1f words/call (bar: 2)"
      per_call

(* [Svc.call_op] takes the request unboxed: under the serve policies a
   served call allocates nothing at all. *)
let test_svc_call_op_alloc () =
  let clock, advance = Clock.manual () in
  let svc = Svc.create (serve_policies clock) always_true in
  let n = 10_000 in
  let words =
    Support.words_during (fun () ->
        for i = 1 to n do
          advance 1;
          ignore
            (Sys.opaque_identity (Svc.call_op svc Lf_obs.Obs_event.Find i 0))
        done)
  in
  Alcotest.(check int) "every call served" n (Svc.stats svc).served;
  let per_call = words /. float_of_int n in
  if per_call > 0. then
    Alcotest.failf "serve-policy Svc.call_op allocates %.1f words/call (bar: 0)"
      per_call

(* --- In-flight accounting: one decrement on every exit ----------------- *)

(* With [max_queue = 0] the shed stage admits a call only while nothing
   is in flight, so a call that leaked its in-flight count would make
   every later call [Queue_full].  Each case ends one call through a
   different exit; the next call must be admitted and served. *)
let shed0 = Some (Shed.config ~max_queue:0 ~est_init:1 ())

let flaky_ops =
  let exec k = if k >= 100 then failwith "down" else true in
  { Svc.insert = (fun k _ -> exec k); delete = exec; find = exec }

let next_call_admitted name svc =
  Alcotest.check outcome (name ^ ": next call admitted") (Svc.Served true)
    (Svc.call svc (Svc.Find 1))

let is_failed = function Svc.Failed _ -> true | _ -> false

let test_inflight_exits () =
  let case name cfg ?deadline req check =
    let svc = Svc.create cfg flaky_ops in
    let out = Svc.call svc ?deadline req in
    if not (check out) then
      Alcotest.failf "%s: unexpected outcome %s" name (Svc.outcome_to_string out);
    next_call_admitted name svc
  in
  let clock, advance = Clock.manual () in
  let retry = Some (Retry.policy ~max_attempts:2 ~base_delay:1 ()) in
  case "served" (Svc.config ~clock ~shed:shed0 ()) (Svc.Find 2)
    (( = ) (Svc.Served true));
  case "retries exhausted"
    (Svc.config ~clock ~shed:shed0 ~retry ())
    (Svc.Find 100)
    (fun o ->
      match o with
      | Svc.Failed m -> m = "Failure(\"down\") (attempt 2)"
      | _ -> false);
  case "budget denied"
    (Svc.config ~clock ~shed:shed0 ~retry
       ~budget:(Retry.Budget.config ~capacity:0 ())
       ())
    (Svc.Find 100) is_failed;
  case "deadline after attempt 1"
    (Svc.config ~clock ~shed:shed0 ~retry ~backoff:(fun _ -> advance 50) ())
    ~deadline:(Deadline.at (Clock.now clock + 10))
    (Svc.Find 100)
    (fun o ->
      match o with
      | Svc.Failed m -> m = "deadline after 1 attempts"
      | _ -> false);
  (* A backoff that raises: the exception leaves [call], and so does the
     call's in-flight count. *)
  let svc =
    Svc.create
      (Svc.config ~clock ~shed:shed0 ~retry
         ~backoff:(fun _ -> failwith "no sleep")
         ())
      flaky_ops
  in
  (match Svc.call svc (Svc.Find 100) with
  | o -> Alcotest.failf "raising backoff: returned %s" (Svc.outcome_to_string o)
  | exception Failure _ -> ());
  next_call_admitted "raising backoff" svc

(* Expiry at attempt 1 needs the clock to pass the deadline between
   admission and the first attempt, which only a clock that moves on its
   own does.  On the real clock (microsecond steps) a deadline half a
   microsecond out is admitted within the microsecond it was set in and
   expires at attempt 1 once the next one starts; the decision log
   tells that exit from a rejection at admission.  Each try gets a
   fresh pipeline, so no service-time estimate carries over and dooms
   the next try. *)
let test_inflight_expired_unrun () =
  let clock = Clock.real () in
  let verb line = List.nth (String.split_on_char ' ' line) 1 in
  let rec go tries =
    if tries = 0 then
      Alcotest.fail "no call expired between admission and attempt 1";
    let svc =
      Svc.create
        (Svc.config ~clock ~shed:shed0 ~log_decisions:true ())
        flaky_ops
    in
    let deadline = Deadline.at (Clock.now clock + 500) in
    match (Svc.call svc ~deadline (Svc.Find 2), Svc.decision_log svc) with
    | Svc.Rejected Svc.Expired, [ admit; reject ]
      when verb admit = "admit" && verb reject = "reject" ->
        next_call_admitted "expired at attempt 1" svc
    | _ -> go (tries - 1)
  in
  go 10_000

(* --- Retry budget: conservation -------------------------------------- *)

let test_budget_conservation_pure =
  Support.qcheck ~count:300 "budget: grants = min(takes, capacity) = spent"
    QCheck2.Gen.(pair (0 -- 20) (0 -- 60))
    (fun (capacity, takes) ->
      let b =
        Retry.Budget.create
          (Retry.Budget.config ~capacity ~refill_every:0 ())
          ~now:0
      in
      let granted = ref 0 in
      for _ = 1 to takes do
        if Retry.Budget.take b ~now:0 then incr granted
      done;
      !granted = min takes capacity && Retry.Budget.spent b = !granted)

let test_budget_refill () =
  let cfg = Retry.Budget.config ~capacity:2 ~refill_every:10 () in
  let b = Retry.Budget.create cfg ~now:0 in
  let take now = Retry.Budget.take b ~now in
  Alcotest.(check bool) "first" true (take 0);
  Alcotest.(check bool) "second" true (take 0);
  Alcotest.(check bool) "drained" false (take 0);
  Alcotest.(check bool) "refilled after a period" true (take 10);
  Alcotest.(check int) "spent counts only grants" 3 (Retry.Budget.spent b);
  Alcotest.(check bool) "capped at capacity" true
    (Retry.Budget.tokens b ~now:1_000_000 <= 2);
  (* [tokens] credits nothing: half a period after the last refill the
     bucket is still empty. *)
  Alcotest.(check bool) "tokens is a view" false (take 15)

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

(* Run once with the read-only default and once failing fast: while
   open, read-only serves reads and refuses writes as [Write_degraded];
   fail-fast refuses both as [Breaker_open].  Probes run on the primary
   either way. *)
let breaker_lifecycle read_only =
  let label name =
    Printf.sprintf "%s (read_only_when_open=%b)" name read_only
  in
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
      ~read_only_when_open:read_only ~log_decisions:true ()
  in
  let svc = Svc.create cfg primary in
  (* Three failed writes trip the breaker. *)
  for i = 1 to 3 do
    advance 1;
    ignore (Svc.call svc (Svc.Insert (i, i)))
  done;
  let st = Svc.stats svc in
  Alcotest.(check (option string))
    (label "breaker open") (Some "open") st.breaker;
  Alcotest.(check string) (label "mode while open")
    (if read_only then "read-only" else "normal")
    st.mode;
  (* Writes refused AS rejections; reads served only when read-only. *)
  Alcotest.check outcome (label "write refused while open")
    (Svc.Rejected (if read_only then Svc.Write_degraded else Svc.Breaker_open))
    (Svc.call svc (Svc.Insert (9, 9)));
  Alcotest.check outcome (label "read while open")
    (if read_only then Svc.Served true else Svc.Rejected Svc.Breaker_open)
    (Svc.call svc (Svc.Find 1));
  (* Recovery: cool-down passes, the fault clears, probes run on the
     primary, and two successes close the breaker. *)
  failing := false;
  advance 100;
  let writes_before = !primary_writes in
  Alcotest.check outcome (label "probe 1") (Svc.Served true)
    (Svc.call svc (Svc.Insert (10, 10)));
  let st = Svc.stats svc in
  Alcotest.(check (option string))
    (label "probing") (Some "half-open") st.breaker;
  Alcotest.(check string)
    (label "normal mode while half-open") "normal" st.mode;
  Alcotest.check outcome (label "probe 2") (Svc.Served true)
    (Svc.call svc (Svc.Insert (11, 11)));
  Alcotest.(check int) (label "the primary took both probes") 2
    (!primary_writes - writes_before);
  let st = Svc.stats svc in
  Alcotest.(check (option string))
    (label "breaker closed") (Some "closed") st.breaker;
  Alcotest.(check (list string))
    (label "transition trace")
    [ "open"; "half-open"; "closed" ]
    (List.map snd st.transitions);
  Alcotest.(check int) (label "degraded serves (the read while open)")
    (if read_only then 1 else 0)
    st.served_degraded;
  Alcotest.(check bool) (label "decision log recorded") true
    (Svc.decision_log svc <> [])

let test_breaker_through_svc () = List.iter breaker_lifecycle [ true; false ]

(* A flapping breaker keeps only its 64 most recent transitions: 200
   open -> half-open -> closed cycles on a manual clock make 600 state
   changes, and [stats] returns the last 64, ending with the latest. *)
let test_breaker_history_bounded () =
  let clock, advance = Clock.manual () in
  let failing = ref false in
  let boom () = if !failing then failwith "boom" else true in
  let cfg =
    Svc.config ~clock
      ~retryable:(fun _ -> false)
      ~breaker:
        (Some
           (Breaker.config ~window:1_000_000 ~min_calls:1 ~failure_pct:50
              ~open_for:10 ~probes:1 ()))
      ()
  in
  let svc =
    Svc.create cfg
      {
        Svc.insert = (fun _ _ -> boom ());
        delete = (fun _ -> boom ());
        find = (fun _ -> true);
      }
  in
  let cycles = 200 in
  for i = 1 to cycles do
    failing := true;
    advance 1;
    ignore (Svc.call svc (Svc.Insert (i, i)));
    failing := false;
    advance 20;
    ignore (Svc.call svc (Svc.Insert (i, i)))
  done;
  let st = Svc.stats svc in
  let all =
    List.concat (List.init cycles (fun _ -> [ "open"; "half-open"; "closed" ]))
  in
  Alcotest.(check (list string))
    "the 64 most recent transitions, oldest first"
    (List.filteri (fun i _ -> i >= List.length all - 64) all)
    (List.map snd st.transitions);
  Alcotest.(check (option int)) "ends with the latest" (Some (Clock.now clock))
    (Option.map fst (List.nth_opt st.transitions 63))

(* --- Batch paths report per-key outcomes, never one collapsed error --- *)

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

let test_call_many_partial_failure () =
  let clock, advance = Clock.manual () in
  let ops, _ = hashtbl_ops () in
  let execs = ref 0 in
  (* Key 13's backend is down; every other key must still get its own
     honest outcome, in input order, one per request. *)
  let poisoned =
    {
      ops with
      Svc.insert =
        (fun k v ->
          incr execs;
          if k = 13 then failwith "shard down" else ops.Svc.insert k v);
      find =
        (fun k ->
          incr execs;
          if k = 13 then failwith "shard down" else ops.Svc.find k);
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
  Alcotest.(check int) "failures counted, not hidden" 2 st.failed;
  (* Admission is per element: an expired deadline rejects every
     element as [Expired] and executes none of them. *)
  advance 1;
  let before = !execs in
  Alcotest.(check (list outcome))
    "expired batch elements rejected"
    (List.init 8 (fun _ -> Svc.Rejected Svc.Expired))
    (Svc.call_many svc ~deadline:(Deadline.at 0)
       (List.init 8 (fun i -> Svc.Find i)));
  Alcotest.(check int) "expired batch elements not executed" before !execs

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

(* Keys, values and shard numbers are decimal: an optional [-], then
   digits, within the int range — one spelling per number, so a batch's
   duplicate check sees every duplicate. *)
let test_wire_decimal_grammar () =
  (match cmd_ok "GET 16" with
  | Wire.Op (Svc.Find 16) -> ()
  | _ -> Alcotest.fail "GET 16 parsed wrong");
  List.iter
    (fun spelling ->
      Alcotest.(check string) ("GET " ^ spelling)
        (Printf.sprintf "bad key %S" spelling)
        (cmd_err ("GET " ^ spelling)))
    [ "0x10"; "1_6"; "+16"; "0b10000"; "0o20"; "0u16"; "0x7fffffffffffffff";
      "-"; "1-"; "4611686018427387904"; "-4611686018427387905" ];
  Alcotest.(check string) "one key, two spellings" "bad key \"0x10\""
    (cmd_err "MGET 16 0x10");
  Alcotest.(check string) "hex value" "bad value \"0x10\"" (cmd_err "PUT 1 0x10");
  Alcotest.(check string) "hex shard" "bad shard \"0x1\"" (cmd_err "KILL 0x1");
  List.iter
    (fun k ->
      match cmd_ok (Printf.sprintf "PUT %d %d" k k) with
      | Wire.Op (Svc.Insert (k', v)) when k' = k && v = k -> ()
      | _ -> Alcotest.failf "PUT %d %d does not round-trip" k k)
    [ max_int; min_int; 0; -1 ];
  match cmd_ok "MGET -0 1" with
  | Wire.Multi [ Svc.Find 0; Svc.Find 1 ] -> ()
  | _ -> Alcotest.fail "-0 is key 0"

(* Parsing a 16-key batch builds its requests and one array of keys;
   formatting a 16-token reply writes one string of the exact length. *)
let test_wire_alloc () =
  let n = 10_000 in
  let per f =
    Support.words_during (fun () -> for _ = 1 to n do f () done)
    /. float_of_int n
  in
  let keys = List.init 16 (fun i -> string_of_int (100_000 + (i * 7919))) in
  let mget = String.concat " " ("MGET" :: keys) in
  let parse = per (fun () -> ignore (Sys.opaque_identity (Wire.parse mget))) in
  if parse > 128. then
    Alcotest.failf "Wire.parse of a 16-key MGET allocates %.1f words (bar: 128)"
      parse;
  let outs = List.init 16 (fun i -> Svc.Served (i land 1 = 0)) in
  let format =
    per (fun () -> ignore (Sys.opaque_identity (Wire.format_multi outs)))
  in
  if format > 16. then
    Alcotest.failf
      "Wire.format_multi of 16 tokens allocates %.1f words (bar: 16)" format

(* The server's path: a line parsed in place into a reused batch, and a
   16-token reply written straight to a channel, allocate nothing. *)
let test_wire_in_place_alloc () =
  let n = 10_000 in
  let per f =
    Support.words_during (fun () -> for _ = 1 to n do f () done)
    /. float_of_int n
  in
  let b = Svc.batch Wire.max_batch in
  let keys = List.init 16 (fun i -> string_of_int (100_000 + (i * 7919))) in
  let lines =
    [
      "GET 123456"; "PUT -123456 4611686018427387903"; "del 99";
      String.concat " " ("MGET" :: keys);
      String.concat " " ("MSET" :: List.concat_map (fun k -> [ k; "-7" ]) keys);
    ]
  in
  List.iter
    (fun l ->
      let len = String.length l in
      (match Wire.parse_into b l 0 len with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "parse_into %S: %s" l e);
      let w = per (fun () -> ignore (Sys.opaque_identity (Wire.parse_into b l 0 len))) in
      if w > 0. then
        Alcotest.failf "Wire.parse_into %S allocates %.1f words (bar: 0)" l w)
    lines;
  Alcotest.(check int) "the MSET's keys" 16 b.len;
  for i = 0 to 15 do
    b.outcomes.(i) <-
      (if i mod 4 = 3 then Svc.Rejected Svc.Queue_full else Svc.Served (i land 1 = 0))
  done;
  let oc = open_out Filename.null in
  let w = per (fun () -> Wire.write_multi oc b) in
  let one = per (fun () -> Wire.write_outcome oc b.outcomes.(3)) in
  close_out oc;
  if w > 0. then
    Alcotest.failf "Wire.write_multi of 16 tokens allocates %.1f words (bar: 0)" w;
  if one > 0. then
    Alcotest.failf "Wire.write_outcome of a rejection allocates %.1f words (bar: 0)" one

(* [parse_into] reads only its slice of a larger buffer, overwrites a
   reused batch completely, and agrees with [parse] on every line: the
   same verb and arguments, or the same error text.  Lines mix every
   verb in both cases, numbers at and past the int range, bad digits,
   duplicate keys, batches past [max_batch], runs of spaces, a trailing
   [\r] and garbage. *)
let test_parse_into_agrees =
  let open QCheck2.Gen in
  let number =
    oneof
      [
        map string_of_int (-50 -- 50);
        map string_of_int int;
        oneofl
          [ string_of_int min_int; string_of_int max_int; "4611686018427387904";
            "-4611686018427387905"; "99999999999999999999"; "-0"; "007";
            "0x10"; "1_6"; "+16"; "-"; "1-"; "12a"; "" ];
      ]
  in
  let verb =
    oneofl
      [ "GET"; "get"; "PUT"; "Put"; "DEL"; "MGET"; "mget"; "MSET"; "KILL";
        "HEALTH"; "METRICS"; "SLO"; "REPLICAS"; "HEAL"; "FLIGHTDUMP"; "QUIT";
        "SHUTDOWN"; "shutdown"; "NOPE"; "G\x00T"; "" ]
  in
  let args = oneof [ list_size (0 -- 4) number; list_size (60 -- 140) number;
                     map (fun k -> List.init 70 (fun _ -> k)) number ] in
  let spaces = map (fun n -> String.make n ' ') (1 -- 3) in
  let garbage = string_size ~gen:printable (0 -- 12) in
  let line =
    let* v = verb and* a = args and* sp = list_size (return 150) spaces
    and* lead = oneofl [ ""; " "; "  " ] and* cr = oneofl [ ""; "\r" ]
    and* junk = oneof [ return None; map Option.some garbage ] in
    let toks = v :: a in
    let sep i = List.nth sp (i mod 150) in
    let body =
      String.concat ""
        (List.mapi (fun i t -> if i = 0 then t else sep i ^ t) toks)
    in
    return (match junk with Some g -> g | None -> lead ^ body ^ cr)
  in
  let b = Svc.batch Wire.max_batch in
  Support.qcheck ~count:2000 "parse_into agrees with parse"
    ~print:(fun (pre, l, post) -> Printf.sprintf "%S ^ %S ^ %S" pre l post)
    (triple garbage line garbage)
    (fun (pre, l, post) ->
      let s = pre ^ l ^ post in
      let i = String.length pre in
      let got = Wire.parse_into b s i (i + String.length l) in
      let entries () = List.init b.len (Svc.batch_req b) in
      match (got, Wire.parse l) with
      | Error m, Error m' -> m = m'
      | Ok Wire.V_op, Ok (Wire.Op r) -> b.len = 1 && entries () = [ r ]
      | Ok Wire.V_multi, Ok (Wire.Multi rs) -> entries () = rs
      | Ok Wire.V_kill, Ok (Wire.Kill k) -> b.keys.(0) = k
      | Ok Wire.V_health, Ok Wire.Health
      | Ok Wire.V_metrics, Ok Wire.Metrics
      | Ok Wire.V_slo, Ok Wire.Slo
      | Ok Wire.V_replicas, Ok Wire.Replicas
      | Ok Wire.V_heal, Ok Wire.Heal
      | Ok Wire.V_flightdump, Ok Wire.Flightdump
      | Ok Wire.V_quit, Ok Wire.Quit
      | Ok Wire.V_shutdown, Ok Wire.Shutdown ->
          true
      | _ -> false)

(* --- The line reader --------------------------------------------------- *)

module Reader = Lf_svc.Reader

(* A read function handing out [chunks] one per call (split further when
   the reader asks for less), then end of input; [calls] counts reads. *)
let scripted chunks =
  let rest = ref chunks and calls = ref 0 in
  let read buf off len =
    incr calls;
    match !rest with
    | [] -> 0
    | c :: tl ->
        let n = min len (String.length c) in
        Bytes.blit_string c 0 buf off n;
        rest :=
          if n < String.length c then String.sub c n (String.length c - n) :: tl
          else tl;
        n
  in
  (read, calls)

type got = L of string | Long | End

(* A copy of the last line handed out. *)
let line_of r =
  String.sub (Reader.line r) (Reader.first r) (Reader.last r - Reader.first r)

let drain r =
  let rec go acc =
    match Reader.next r with
    | Reader.Line -> go (L (line_of r) :: acc)
    | Reader.Too_long -> go (Long :: acc)
    | Reader.Eof -> List.rev (End :: acc)
  in
  go []

let got =
  Alcotest.testable
    (fun ppf -> function
      | L s -> Format.fprintf ppf "L %S" s
      | Long -> Format.pp_print_string ppf "Long"
      | End -> Format.pp_print_string ppf "End")
    ( = )

let reader_case ?capacity chunks =
  let read, _ = scripted chunks in
  drain (Reader.create ?capacity read)

let test_reader_edges () =
  Alcotest.(check (list got)) "a line split across reads"
    [ L "GET 1"; L "PUT 2 3"; End ]
    (reader_case [ "GE"; "T 1\nPU"; "T"; " 2 3\n" ]);
  Alcotest.(check (list got)) "an unterminated last line, as input_line"
    [ L "GET 1"; L "GET 2"; End ]
    (reader_case [ "GET 1\nGET"; " 2" ]);
  Alcotest.(check (list got)) "no empty last line" [ L "GET 1"; End ]
    (reader_case [ "GET 1\n" ]);
  Alcotest.(check (list got)) "empty lines are lines" [ L ""; L "x"; End ]
    (reader_case [ "\nx\n" ]);
  Alcotest.(check (list got)) "\\r\\n keeps its \\r for the parser"
    [ L "GET 1\r"; L "DEL 2\r"; End ]
    (reader_case [ "GET 1\r\nDEL 2\r\n" ]);
  Alcotest.(check (list got)) "an over-long line, once, then the next line"
    [ L "GET 1"; Long; L "GET 2"; End ]
    (reader_case ~capacity:16
       [ "GET 1\n"; String.make 40 'x'; String.make 20 'y' ^ "\nGET 2\n" ]);
  Alcotest.(check (list got)) "a line of capacity - 1 bytes fits"
    [ L (String.make 15 'z'); Long; End ]
    (reader_case ~capacity:16 [ String.make 15 'z' ^ "\n"; String.make 16 'w' ]);
  Alcotest.(check (list got)) "partial lines move to the front"
    [ L "0123456789"; L "abcdefghij"; L "k"; End ]
    (reader_case ~capacity:16 [ "0123456789\nabcde"; "fghij\nk" ]);
  (* A \r\n line through the parser: the request, not an error. *)
  let read, _ = scripted [ "get 7\r\n" ] in
  let r = Reader.create read in
  let b = Svc.batch Wire.max_batch in
  (match Reader.next r with
  | Reader.Line -> (
      match Wire.parse_into b (Reader.line r) (Reader.first r) (Reader.last r) with
      | Ok Wire.V_op ->
          Alcotest.(check bool) "GET 7" true (Svc.batch_req b 0 = Svc.Find 7)
      | _ -> Alcotest.fail "\\r\\n line did not parse as one request")
  | _ -> Alcotest.fail "no line")

(* Any input, cut into any chunks, reads back as splitting it at its
   newlines would: a line of at most [capacity - 1] bytes is handed
   out, a longer one is reported once, and a non-empty unterminated
   tail is a last line. *)
let test_reader_model =
  let open QCheck2.Gen in
  Support.qcheck ~count:1000 "reader = splitting at newlines, any chunking"
    ~print:(fun (cap, s, cuts) ->
      Printf.sprintf "capacity %d, %S, chunks %s" cap s
        (String.concat "," (List.map string_of_int cuts)))
    (triple (1 -- 20)
       (string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\r'; '\n'; '\n' ]) (0 -- 120))
       (list_size (1 -- 40) (1 -- 30)))
    (fun (capacity, s, cuts) ->
      let rec chunks s cuts =
        if s = "" then []
        else
          let n, rest = match cuts with [] -> (String.length s, []) | c :: r -> (c, r) in
          let n = min n (String.length s) in
          String.sub s 0 n :: chunks (String.sub s n (String.length s - n)) rest
      in
      let expected =
        let parts = String.split_on_char '\n' s in
        let complete = List.filteri (fun i _ -> i < List.length parts - 1) parts in
        let tail = List.nth parts (List.length parts - 1) in
        let one l = if String.length l < capacity then L l else Long in
        List.map one complete @ (if tail = "" then [] else [ one tail ]) @ [ End ]
      in
      reader_case ~capacity (chunks s cuts) = expected)

(* Sixteen pipelined lines in one segment are served from one read, and
   [has_line] says so until the last: the server flushes once. *)
let test_reader_pipelined () =
  let lines = List.init 16 (fun i -> Printf.sprintf "GET %d" i) in
  let read, calls = scripted [ String.concat "" (List.map (fun l -> l ^ "\n") lines) ] in
  let r = Reader.create read in
  let flushes = ref 0 in
  let rec go acc =
    if not (Reader.has_line r) then incr flushes;
    match Reader.next r with
    | Reader.Line ->
        go (line_of r :: acc)
    | Reader.Too_long -> Alcotest.fail "too long"
    | Reader.Eof -> List.rev acc
  in
  Alcotest.(check (list string)) "every line, in order" lines (go []);
  Alcotest.(check int) "one read for the data, one for its end" 2 !calls;
  Alcotest.(check int) "flushed before the first read and after the 16th" 2 !flushes

(* Handing out a line allocates nothing: the reader copies nothing and
   the line is a view of its buffer. *)
let test_reader_alloc () =
  let src = String.concat "" (List.init 2000 (fun i -> Printf.sprintf "GET %d\n" i)) in
  let pos = ref 0 in
  let read buf off len =
    let n = min len (min 97 (String.length src - !pos)) in
    Bytes.blit_string src !pos buf off n;
    pos := !pos + n;
    n
  in
  let r = Reader.create ~capacity:256 read in
  let lines = ref 0 in
  let words =
    Support.words_during (fun () ->
        while Reader.next r = Reader.Line do
          incr lines
        done)
  in
  Alcotest.(check int) "every line" 2000 !lines;
  if words > 0. then
    Alcotest.failf "Reader.next allocates %.1f words over 2000 lines (bar: 0)" words

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
          {
            insert = (fun k -> to_bool (Svc.call svc (Svc.Insert (k, k))));
            delete = (fun k -> to_bool (Svc.call svc (Svc.Delete k)));
            find = (fun k -> to_bool (Svc.call svc (Svc.Find k)));
            check = ignore;
          }
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

(* One hand-driven script through every policy: shed rejections (queue,
   doomed, expired), retries that drain the budget, a breaker trip,
   read-only serving while open, a failed probe that re-opens, two probes
   that close, budget-denied retries and a refill.  Its decision log and
   transition journal are pinned, so a change to how the policies keep
   their state cannot change a decision. *)
let golden_run () =
  let clock, advance = Clock.manual () in
  let failing = ref false in
  let base, _ = hashtbl_ops () in
  let down () = if !failing then failwith "down" in
  let ops =
    {
      Svc.insert = (fun k v -> down (); base.Svc.insert k v);
      delete = (fun k -> down (); base.Svc.delete k);
      find = (fun k -> down (); base.Svc.find k);
    }
  in
  let cfg =
    Svc.config ~clock ~seed:11 ~deadline:40
      ~retry:(Some (Retry.policy ~max_attempts:3 ~base_delay:4 ~max_delay:16 ()))
      ~budget:(Retry.Budget.config ~capacity:2 ~refill_every:60 ())
      ~breaker:
        (Some
           (Breaker.config ~window:100 ~min_calls:4 ~failure_pct:50
              ~open_for:30 ~probes:2 ()))
      ~shed:(Some (Shed.config ~max_queue:3 ~est_init:5 ()))
      ~backoff:advance ~log_decisions:true ()
  in
  let svc = Svc.create cfg ops in
  let call ?deadline ?queue_depth req =
    advance 1;
    ignore (Svc.call svc ?deadline ?queue_depth req)
  in
  let from_now d = Deadline.at (Clock.now clock + 1 + d) in
  call (Svc.Insert (1, 10));
  call (Svc.Insert (1, 11));
  call (Svc.Find 1);
  call (Svc.Delete 2);
  call ~queue_depth:4 (Svc.Find 1);
  call ~deadline:(from_now 0) ~queue_depth:2 (Svc.Find 1);
  call ~deadline:(from_now (-2)) (Svc.Find 1);
  failing := true;
  call (Svc.Insert (3, 30));
  call (Svc.Delete 1);
  call (Svc.Insert (4, 40));
  failing := false;
  call (Svc.Find 1);
  advance 30;
  failing := true;
  call (Svc.Find 1);
  call (Svc.Insert (5, 50));
  advance 30;
  failing := false;
  call (Svc.Insert (5, 50));
  call (Svc.Find 5);
  call (Svc.Find 5);
  failing := true;
  call (Svc.Delete 5);
  advance 60;
  call (Svc.Delete 5);
  call ~deadline:(from_now 3) (Svc.Find 5);
  failing := false;
  call (Svc.Find 5);
  svc

let golden_log =
  [
    "t=1 admit ins 1";
    "t=1 served ins 1 -> true";
    "t=2 admit ins 1";
    "t=2 served ins 1 -> false";
    "t=3 admit find 1";
    "t=3 served find 1 -> true";
    "t=4 admit del 2";
    "t=4 served del 2 -> false";
    "t=5 reject queue-full find 1";
    "t=6 reject doomed find 1";
    "t=7 reject expired find 1";
    "t=8 admit ins 3";
    "t=8 retry ins 3 attempt=2 delay=3";
    "t=11 retry ins 3 attempt=3 delay=3";
    "t=14 failed ins 3: Failure(\"down\") (attempt 3)";
    "t=15 admit del 1";
    "t=15 breaker open";
    "t=15 failed del 1: Failure(\"down\") (retry budget exhausted after attempt 1)";
    "t=16 reject write-degraded ins 4";
    "t=17 admit find 1 (read-only)";
    "t=17 served find 1 -> true";
    "t=48 breaker half-open";
    "t=48 admit find 1";
    "t=48 breaker open";
    "t=48 failed find 1: Failure(\"down\") (retry budget exhausted after attempt 1)";
    "t=49 reject write-degraded ins 5";
    "t=80 breaker half-open";
    "t=80 admit ins 5";
    "t=80 served ins 5 -> true";
    "t=81 admit find 5";
    "t=81 breaker closed";
    "t=81 served find 5 -> true";
    "t=82 admit find 5";
    "t=82 served find 5 -> true";
    "t=83 admit del 5";
    "t=83 retry del 5 attempt=2 delay=2";
    "t=85 failed del 5: Failure(\"down\") (retry budget exhausted after attempt 2)";
    "t=146 admit del 5";
    "t=146 breaker open";
    "t=146 retry del 5 attempt=2 delay=4";
    "t=150 failed del 5: Failure(\"down\") (retry budget exhausted after attempt 2)";
    "t=151 admit find 5 (read-only)";
    "t=151 failed find 5: Failure(\"down\") (attempt 1)";
    "t=152 admit find 5 (read-only)";
    "t=152 served find 5 -> true";
  ]

let test_golden_decisions () =
  let svc = golden_run () in
  Alcotest.(check (list string)) "decision log" golden_log
    (Svc.decision_log svc);
  Alcotest.(check (list (pair int string)))
    "transitions"
    [ (15, "open"); (48, "half-open"); (48, "open"); (80, "half-open");
      (81, "closed"); (146, "open") ]
    (Svc.stats svc).transitions

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
          Alcotest.test_case "serve-policy Svc.call allocation budget" `Quick
            test_svc_policy_call_alloc;
          Alcotest.test_case "serve-policy Svc.call_op allocates nothing"
            `Quick test_svc_call_op_alloc;
        ] );
      ( "in-flight",
        [
          Alcotest.test_case "every exit leaves flight once" `Quick
            test_inflight_exits;
          Alcotest.test_case "expiry at attempt 1 leaves flight" `Quick
            test_inflight_expired_unrun;
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
          Alcotest.test_case "flapping breaker keeps 64 transitions" `Quick
            test_breaker_history_bounded;
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
          Alcotest.test_case "decimal numbers only" `Quick
            test_wire_decimal_grammar;
          Alcotest.test_case "parse and format allocation budget" `Quick
            test_wire_alloc;
          Alcotest.test_case "in-place parse and replies allocate nothing"
            `Quick test_wire_in_place_alloc;
          test_parse_into_agrees;
        ] );
      ( "reader",
        [
          Alcotest.test_case "split, unterminated, \\r\\n, over-long lines"
            `Quick test_reader_edges;
          test_reader_model;
          Alcotest.test_case "16 pipelined lines, one read" `Quick
            test_reader_pipelined;
          Alcotest.test_case "a line allocates nothing" `Quick
            test_reader_alloc;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "stall plan through the full pipeline" `Quick
            test_chaos_through_svc;
        ] );
      ( "determinism",
        [
          test_decision_determinism;
          Alcotest.test_case "golden decision log" `Quick test_golden_decisions;
        ] );
    ]
