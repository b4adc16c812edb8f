(* The service pipeline.  The policy states (Breaker / Shed /
   Retry.Budget) are mutable records created once with the service and
   updated in place under its one mutex, so a served call allocates
   nothing in the pipeline.  This module runs the admission/execution
   protocol around the wrapped dictionary closures.  Executions happen
   outside the mutex — only decisions are serialized.

   A served call takes the mutex twice: once to admit (and count the
   call in flight), once to record the outcome (and take it out of
   flight).  Every exit from a call — served, failed, rejected at its
   first attempt, or an exception from an injected closure — decrements
   the in-flight count exactly once.  The hot path locks and unlocks
   explicitly, with no [Fun.protect]: its critical sections run only
   non-raising counter updates and in-place policy steps. *)

module Span = Lf_obs.Span
module Ev = Lf_obs.Obs_event

type req = Insert of int * int | Delete of int | Find of int

(* The request path carries a request unboxed, as its kind, key and
   value; the decision log names it [ins k], [del k] or [find k]. *)
let req_to_string (op : Ev.op) k =
  match op with
  | Insert -> Printf.sprintf "ins %d" k
  | Delete -> Printf.sprintf "del %d" k
  | Find | Other -> Printf.sprintf "find %d" k

let is_write (op : Ev.op) = match op with Insert | Delete -> true | Find | Other -> false

type reject_reason =
  | Expired
  | Queue_full
  | Doomed
  | Breaker_open
  | Write_degraded

let reason_to_string = function
  | Expired -> "expired"
  | Queue_full -> "queue-full"
  | Doomed -> "doomed"
  | Breaker_open -> "breaker-open"
  | Write_degraded -> "write-degraded"

let all_reasons = [ Expired; Queue_full; Doomed; Breaker_open; Write_degraded ]

type outcome =
  | Served of bool
  | Served_stale of bool * int
  | Rejected of reject_reason
  | Failed of string

let outcome_to_string = function
  | Served b -> Printf.sprintf "served %b" b
  | Served_stale (b, lag) -> Printf.sprintf "served-stale %b lag=%d" b lag
  | Rejected r -> "rejected " ^ reason_to_string r
  | Failed m -> "failed " ^ m

type batch = {
  ops : Ev.op array;
  keys : int array;
  vals : int array;
  shards : int array;
  outcomes : outcome array;
  mutable len : int;
}

let batch n =
  {
    ops = Array.make n Ev.Find;
    keys = Array.make n 0;
    vals = Array.make n 0;
    shards = Array.make n 0;
    outcomes = Array.make n (Failed "");
    len = 0;
  }

let set b i = function
  | Insert (k, v) ->
      b.ops.(i) <- Ev.Insert;
      b.keys.(i) <- k;
      b.vals.(i) <- v
  | Delete k ->
      b.ops.(i) <- Ev.Delete;
      b.keys.(i) <- k
  | Find k ->
      b.ops.(i) <- Ev.Find;
      b.keys.(i) <- k

let batch_of_reqs reqs =
  let b = batch (List.length reqs) in
  List.iteri (set b) reqs;
  b.len <- List.length reqs;
  b

let batch_req b i =
  match b.ops.(i) with
  | Ev.Insert -> Insert (b.keys.(i), b.vals.(i))
  | Ev.Delete -> Delete b.keys.(i)
  | Ev.Find | Ev.Other -> Find b.keys.(i)

type ops = {
  insert : int -> int -> bool;
  delete : int -> bool;
  find : int -> bool;
}

type config = {
  clock : Clock.t;
  seed : int;
  deadline : int;
  retry : Retry.policy option;
  budget : Retry.Budget.config;
  breaker : Breaker.config option;
  shed : Shed.config option;
  read_only_when_open : bool;
  retryable : exn -> bool;
  backoff : int -> unit;
  log_decisions : bool;
}

let config ?(seed = 1) ?(deadline = max_int) ?(retry = None)
    ?(budget = Retry.Budget.unlimited) ?(breaker = None) ?(shed = None)
    ?(read_only_when_open = true) ?(retryable = fun _ -> true)
    ?(backoff = fun _ -> ()) ?(log_decisions = false) ~clock () =
  {
    clock;
    seed;
    deadline;
    retry;
    budget;
    breaker;
    shed;
    read_only_when_open;
    retryable;
    backoff;
    log_decisions;
  }

type t = {
  cfg : config;
  primary : ops;
  mu : Mutex.t;
  rng : Lf_kernel.Splitmix.t;  (* jitter stream; guarded by [mu] *)
  breaker_st : Breaker.t option;  (* updated in place under [mu] *)
  shed_st : Shed.t option;  (* likewise *)
  budget_st : Retry.Budget.t;  (* likewise *)
  mutable inflight : int;
  (* counters (guarded by [mu]) *)
  mutable n_calls : int;
  mutable n_served : int;
  mutable n_served_ok : int;
  mutable n_served_degraded : int;
  mutable n_failed : int;
  mutable n_budget_denied : int;
  mutable n_rejected : int array;  (* indexed like [all_reasons] *)
  mutable transitions : (int * string) list;  (* newest first, bounded *)
  mutable log : string list;  (* newest first *)
}

let create cfg primary =
  let now = Clock.now cfg.clock in
  {
    cfg;
    primary;
    mu = Mutex.create ();
    rng = Lf_kernel.Splitmix.create cfg.seed;
    breaker_st = Option.map (fun c -> Breaker.create c ~now) cfg.breaker;
    shed_st = Option.map Shed.create cfg.shed;
    budget_st = Retry.Budget.create cfg.budget ~now;
    inflight = 0;
    n_calls = 0;
    n_served = 0;
    n_served_ok = 0;
    n_served_degraded = 0;
    n_failed = 0;
    n_budget_denied = 0;
    n_rejected = Array.make (List.length all_reasons) 0;
    transitions = [];
    log = [];
  }

(* Cold paths only (retries, stats); the served path locks by hand. *)
let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let now t = Clock.now t.cfg.clock
let clock t = t.cfg.clock

(* Callers hold [mu] and test [t.cfg.log_decisions] first: the format
   arguments ([req_to_string] and friends) are evaluated before
   [ksprintf] runs, so only the call-site guard keeps the default,
   log-off path free of formatting. *)
let log_locked t fmt = Printf.ksprintf (fun s -> t.log <- s :: t.log) fmt

(* Position in [all_reasons]. *)
let reason_index = function
  | Expired -> 0
  | Queue_full -> 1
  | Doomed -> 2
  | Breaker_open -> 3
  | Write_degraded -> 4

(* Outcome values preallocated, so a served call returns without
   allocating. *)
let served_true = Served true
let served_false = Served false
let rejected_outcomes =
  Array.of_list (List.map (fun r -> Rejected r) all_reasons)

(* Read-only while the breaker is open; half-open probes run on the
   primary like ordinary traffic. *)
let read_only_locked t =
  t.cfg.read_only_when_open
  &&
  match t.breaker_st with
  | Some b -> Breaker.state b = Breaker.Open
  | None -> false

(* Breaker transitions kept, newest first: the journals' bound, so a
   flapping breaker cannot grow the history [stats] copies. *)
let transition_limit = 64

(* Journal a transition when the breaker's kind differs from [before],
   its kind ahead of the step just taken (kinds are constant
   constructors, so [<>] compiles to an integer compare). *)
let journal_locked t ~now:tick ~before b =
  let after = Breaker.state b in
  if after <> before then begin
    let s = Breaker.kind_to_string after in
    t.transitions <-
      List.filteri (fun i _ -> i < transition_limit) ((tick, s) :: t.transitions);
    if t.cfg.log_decisions then log_locked t "t=%d breaker %s" tick s
  end

(* Feed a completed execution into breaker and shed (under [mu]). *)
let observe_locked t ~now:tick ~ok ~latency =
  (match t.breaker_st with
  | None -> ()
  | Some b ->
      let before = Breaker.state b in
      Breaker.observe b ~now:tick ~ok ~latency;
      journal_locked t ~now:tick ~before b);
  match t.shed_st with
  | None -> ()
  | Some s -> if ok then Shed.observe s ~latency

(* How an admitted request will execute. *)
type route =
  | Via_primary
  | Via_degraded_read  (* breaker open, read-only mode: single attempt *)

(* [config.deadline] from the admission tick: the call's first clock
   read serves both. *)
let default_deadline t ~now:tick =
  if t.cfg.deadline = max_int then Deadline.none
  else Deadline.at (tick + t.cfg.deadline)

(* One zero-width child span per pipeline decision, its verdict carried
   as a typed event (DESIGN.md §14).  Callers guard with [Span.active]
   so the off path constructs no event payload. *)
let decide ctx ~tick name ok ev =
  let s = Span.begin_ ctx ~name ~now:tick in
  Span.event s ~now:tick ev;
  Span.end_ s ~now:tick ~ok

(* The admission pipeline: deadline, shed, breaker + read-only.  Returns
   the execution route or the rejection.  Runs under [mu].  Span
   completion never takes other locks, so tracing under [mu] cannot
   invert a lock order. *)
let admission_locked t ~ctx ~now:tick ~dl ~queue_depth op =
  t.n_calls <- t.n_calls + 1;
  let traced = Span.active ctx in
  if Deadline.expired ~now:tick dl then begin
    if traced then decide ctx ~tick "deadline" false (Span.Deadline_check true);
    `Reject Expired
  end
  else begin
    if traced then decide ctx ~tick "deadline" true (Span.Deadline_check false);
    let depth = match queue_depth with Some q -> q | None -> t.inflight in
    let shed_verdict =
      match t.shed_st with
      | None -> `Admit
      | Some s -> Shed.admit s ~now:tick ~deadline:dl ~queue_depth:depth
    in
    match shed_verdict with
    | `Reject_queue ->
        if traced then
          decide ctx ~tick "shed" false (Span.Shed_verdict "queue-full");
        `Reject Queue_full
    | `Reject_doomed ->
        if traced then
          decide ctx ~tick "shed" false (Span.Shed_verdict "doomed");
        `Reject Doomed
    | `Admit -> (
        if traced && t.shed_st <> None then
          decide ctx ~tick "shed" true (Span.Shed_verdict "admit");
        match t.breaker_st with
        | None -> `Execute Via_primary
        | Some b -> (
            let before = Breaker.state b in
            let verdict = Breaker.admit b ~now:tick in
            journal_locked t ~now:tick ~before b;
            match verdict with
            | `Admit ->
                if traced then
                  decide ctx ~tick "breaker" true (Span.Breaker_verdict "admit");
                `Execute Via_primary
            | `Probe ->
                if traced then
                  decide ctx ~tick "breaker" true (Span.Breaker_verdict "probe");
                `Execute Via_primary
            | `Reject -> (
                if traced then
                  decide ctx ~tick "breaker" false
                    (Span.Breaker_verdict "reject");
                if not (read_only_locked t) then `Reject Breaker_open
                else
                  let read = not (is_write op) in
                  if traced then
                    decide ctx ~tick "degrade" read
                      (Span.Degrade_mode "read-only");
                  if read then `Execute Via_degraded_read
                  else `Reject Write_degraded)))
  end

let reject_locked t ~now:tick r op k =
  let i = reason_index r in
  t.n_rejected.(i) <- t.n_rejected.(i) + 1;
  if t.cfg.log_decisions then
    log_locked t "t=%d reject %s %s" tick (reason_to_string r)
      (req_to_string op k);
  rejected_outcomes.(i)

let exec_once t (op : Ev.op) k v =
  match op with
  | Insert -> t.primary.insert k v
  | Delete -> t.primary.delete k
  | Find | Other -> t.primary.find k

(* Spend one budget token for a retry; [false] = denied.  Under [mu]. *)
let budget_take_locked t ~now:tick =
  let granted = Retry.Budget.take t.budget_st ~now:tick in
  if not granted then t.n_budget_denied <- t.n_budget_denied + 1;
  granted

(* The three ends of an admitted call each take it out of flight in
   their own critical section. *)
let served t ~route ~ok ~latency ~tick op k =
  Mutex.lock t.mu;
  t.inflight <- t.inflight - 1;
  t.n_served <- t.n_served + 1;
  if ok then t.n_served_ok <- t.n_served_ok + 1;
  (match route with
  | Via_primary -> ()
  | Via_degraded_read -> t.n_served_degraded <- t.n_served_degraded + 1);
  (* [ok] is the dictionary's answer (a find can miss, an insert can
     hit a duplicate) — the execution itself succeeded, which is what
     the breaker and the shed estimator observe. *)
  observe_locked t ~now:tick ~ok:true ~latency;
  if t.cfg.log_decisions then
    log_locked t "t=%d served %s -> %b" tick (req_to_string op k) ok;
  Mutex.unlock t.mu;
  if ok then served_true else served_false

let failed t ~tick op k msg =
  Mutex.lock t.mu;
  t.inflight <- t.inflight - 1;
  t.n_failed <- t.n_failed + 1;
  if t.cfg.log_decisions then
    log_locked t "t=%d failed %s: %s" tick (req_to_string op k) msg;
  Mutex.unlock t.mu;
  Failed msg

(* An admitted call that never executed: a pure rejection. *)
let expired_unrun t ~tick op k =
  Mutex.lock t.mu;
  t.inflight <- t.inflight - 1;
  let out = reject_locked t ~now:tick Expired op k in
  Mutex.unlock t.mu;
  out

(* Execute one attempt.  Traced, the attempt span first records the
   backend operation it runs; a failed C&S during the call lands in it
   as the innermost request span open on the lane.  The event only
   exists on the traced path — the off path must not allocate. *)
let run_attempt t aspan ~tick op k v =
  if Span.active aspan then Span.event aspan ~now:tick (Span.Op (op, k));
  exec_once t op k v

(* The retry loop.  Each attempt re-checks the deadline first, so an
   admitted operation never starts executing past its deadline (the
   shedding invariant test_svc asserts); each retry must win a token
   from the budget before it may run. *)
let rec attempt_loop t ctx route op k v ~dl ~attempt =
  let t0 = now t in
  if Deadline.expired ~now:t0 dl then begin
    if Span.active ctx then
      decide ctx ~tick:t0 "deadline" false (Span.Deadline_check true);
    if attempt = 1 then expired_unrun t ~tick:t0 op k
    else
      failed t ~tick:t0 op k
        (Printf.sprintf "deadline after %d attempts" (attempt - 1))
  end
  else
    let aspan = Span.begin_ ctx ~name:"attempt" ~now:t0 in
    match run_attempt t aspan ~tick:t0 op k v with
    | ok ->
        let t1 = now t in
        Span.end_ aspan ~now:t1 ~ok:true;
        served t ~route ~ok ~latency:(t1 - t0) ~tick:t1 op k
    | exception e ->
        let t1 = now t in
        Span.end_ aspan ~now:t1 ~ok:false;
        with_mu t (fun () -> observe_locked t ~now:t1 ~ok:false ~latency:(t1 - t0));
        let msg = Printexc.to_string e in
        let single_shot = route = Via_degraded_read in
        let policy_allows =
          match t.cfg.retry with
          | None -> false
          | Some p -> attempt < p.max_attempts
        in
        if single_shot || (not (t.cfg.retryable e)) || not policy_allows then
          failed t ~tick:t1 op k
            (Printf.sprintf "%s (attempt %d)" msg attempt)
        else if
          (* The budget gate: a retry happens iff a token was taken. *)
          with_mu t (fun () -> budget_take_locked t ~now:t1)
        then begin
          let p = Option.get t.cfg.retry in
          let d = with_mu t (fun () -> Retry.delay p t.rng ~attempt) in
          if t.cfg.log_decisions then
            with_mu t (fun () ->
                log_locked t "t=%d retry %s attempt=%d delay=%d" t1
                  (req_to_string op k) (attempt + 1) d);
          if Span.active ctx then
            Span.event ctx ~now:t1
              (Span.Retry_wait { attempt = attempt + 1; delay = d });
          let wspan = Span.begin_ ctx ~name:"retry-wait" ~now:t1 in
          t.cfg.backoff d;
          Span.end_ wspan ~now:(now t) ~ok:true;
          attempt_loop t ctx route op k v ~dl ~attempt:(attempt + 1)
        end
        else begin
          if Span.active ctx then Span.event ctx ~now:t1 Span.Budget_denied;
          failed t ~tick:t1 op k
            (Printf.sprintf "%s (retry budget exhausted after attempt %d)" msg
               attempt)
        end

(* One critical section decides admission and either counts the call
   in flight or counts the rejection.  An exception out of the attempt
   loop can only come from an injected closure ([retryable], [backoff])
   outside every critical section that decrements, so the handler's
   decrement is the call's only one. *)
let call_op t ?(ctx = Span.nil) ?deadline ?queue_depth (op : Ev.op) k v =
  if op = Other then invalid_arg "Svc.call_op: Other is not a request";
  let tick = now t in
  let dl =
    match deadline with Some d -> d | None -> default_deadline t ~now:tick
  in
  Mutex.lock t.mu;
  match admission_locked t ~ctx ~now:tick ~dl ~queue_depth op with
  | `Reject r ->
      let out = reject_locked t ~now:tick r op k in
      Mutex.unlock t.mu;
      out
  | `Execute route -> (
      t.inflight <- t.inflight + 1;
      if t.cfg.log_decisions then
        log_locked t "t=%d admit %s%s" tick (req_to_string op k)
          (match route with
          | Via_primary -> ""
          | Via_degraded_read -> " (read-only)");
      Mutex.unlock t.mu;
      match attempt_loop t ctx route op k v ~dl ~attempt:1 with
      | out -> out
      | exception e ->
          Mutex.lock t.mu;
          t.inflight <- t.inflight - 1;
          Mutex.unlock t.mu;
          raise e)

let call t ?ctx ?deadline ?queue_depth req =
  match req with
  | Insert (k, v) -> call_op t ?ctx ?deadline ?queue_depth Ev.Insert k v
  | Delete k -> call_op t ?ctx ?deadline ?queue_depth Ev.Delete k 0
  | Find k -> call_op t ?ctx ?deadline ?queue_depth Ev.Find k 0

let call_many t ?ctx ?deadline ?queue_depth reqs =
  List.map (fun r -> call t ?ctx ?deadline ?queue_depth r) reqs

type stats = {
  calls : int;
  served : int;
  served_ok : int;
  served_degraded : int;
  failed : int;
  retries : int;
  budget_denied : int;
  rejected : (string * int) list;
  breaker : string option;
  mode : string;
  shed_estimate : int option;
  transitions : (int * string) list;
}

let stats t =
  with_mu t (fun () ->
      {
        calls = t.n_calls;
        served = t.n_served;
        served_ok = t.n_served_ok;
        served_degraded = t.n_served_degraded;
        failed = t.n_failed;
        retries = Retry.Budget.spent t.budget_st;
        budget_denied = t.n_budget_denied;
        rejected =
          List.mapi
            (fun i r -> (reason_to_string r, t.n_rejected.(i)))
            all_reasons;
        breaker =
          Option.map
            (fun b -> Breaker.kind_to_string (Breaker.state b))
            t.breaker_st;
        mode = (if read_only_locked t then "read-only" else "normal");
        shed_estimate = Option.map Shed.estimate t.shed_st;
        transitions = List.rev t.transitions;
      })

let decision_log t = with_mu t (fun () -> List.rev t.log)
