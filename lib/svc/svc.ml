(* The service pipeline.  Policy state machines (Breaker / Shed /
   Retry.Budget) are immutable values; this module holds the current
   states behind one mutex and runs the admission/execution protocol
   around the wrapped dictionary closures.  Executions happen outside
   the mutex — only decisions are serialized. *)

module Span = Lf_obs.Span

type req = Insert of int * int | Delete of int | Find of int

let req_to_string = function
  | Insert (k, _) -> Printf.sprintf "ins %d" k
  | Delete k -> Printf.sprintf "del %d" k
  | Find k -> Printf.sprintf "find %d" k

let is_write = function Insert _ | Delete _ -> true | Find _ -> false

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

type ops = {
  insert : int -> int -> bool;
  delete : int -> bool;
  find : int -> bool;
}

type batched_ops = {
  insert_batch : (int * int) list -> bool list;
  delete_batch : int list -> bool list;
  find_batch : int list -> bool list;
}

type config = {
  clock : Clock.t;
  seed : int;
  deadline : int;
  retry : Retry.policy option;
  budget : Retry.Budget.config;
  breaker : Breaker.config option;
  shed : Shed.config option;
  degrade : Degrade.policy;
  coalesce_min : int;
  retryable : exn -> bool;
  backoff : int -> unit;
  log_decisions : bool;
}

let config ?(seed = 1) ?(deadline = max_int) ?(retry = None)
    ?(budget = Retry.Budget.unlimited) ?(breaker = None) ?(shed = None)
    ?(degrade = Degrade.policy ()) ?(coalesce_min = 8)
    ?(retryable = fun _ -> true) ?(backoff = fun _ -> ())
    ?(log_decisions = false) ~clock () =
  if coalesce_min < 1 then invalid_arg "Svc.config: coalesce_min < 1";
  {
    clock;
    seed;
    deadline;
    retry;
    budget;
    breaker;
    shed;
    degrade;
    coalesce_min;
    retryable;
    backoff;
    log_decisions;
  }

type t = {
  cfg : config;
  primary : ops;
  batched : batched_ops option;
  mu : Mutex.t;
  rng : Lf_kernel.Splitmix.t;  (* jitter stream; guarded by [mu] *)
  mutable breaker_st : Breaker.t option;
  mutable shed_st : Shed.t option;
  mutable budget_st : Retry.Budget.t;
  mutable inflight : int;
  (* counters (guarded by [mu]) *)
  mutable n_calls : int;
  mutable n_served : int;
  mutable n_served_ok : int;
  mutable n_served_degraded : int;
  mutable n_failed : int;
  mutable n_budget_denied : int;
  mutable n_rejected : int array;  (* indexed like [all_reasons] *)
  mutable transitions : (int * string) list;  (* newest first *)
  mutable log : string list;  (* newest first *)
}

let create ?batched cfg primary =
  let now = Clock.now cfg.clock in
  {
    cfg;
    primary;
    batched;
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

let reason_index r =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = r then i else go (i + 1) rest
  in
  go 0 all_reasons

let breaker_kind t =
  match t.breaker_st with None -> None | Some b -> Some (Breaker.state b)

let mode_locked t =
  match breaker_kind t with
  | None -> Degrade.Normal
  | Some k -> Degrade.mode_for t.cfg.degrade k

let mode t = with_mu t (fun () -> mode_locked t)

let set_breaker_locked t ~now:tick b' =
  let before = breaker_kind t in
  t.breaker_st <- Some b';
  let after = Breaker.state b' in
  if before <> Some after then begin
    let s = Breaker.kind_to_string after in
    t.transitions <- (tick, s) :: t.transitions;
    if t.cfg.log_decisions then log_locked t "t=%d breaker %s" tick s
  end

(* Feed a completed execution into breaker and shed (under [mu]). *)
let observe_locked t ~now:tick ~ok ~latency =
  (match t.breaker_st with
  | None -> ()
  | Some b -> set_breaker_locked t ~now:tick (Breaker.observe b ~now:tick ~ok ~latency));
  match t.shed_st with
  | None -> ()
  | Some s -> if ok then t.shed_st <- Some (Shed.observe s ~latency)

(* How an admitted request will execute. *)
type route =
  | Via_primary
  | Via_degraded_read  (* breaker open, read-only mode: single attempt *)

let default_deadline t =
  if t.cfg.deadline = max_int then Deadline.none
  else Deadline.after t.cfg.clock ~ticks:t.cfg.deadline

(* One zero-width child span per pipeline decision, its verdict carried
   as a typed event (DESIGN.md §14).  Callers guard with [Span.active]
   so the off path constructs no event payload. *)
let decide ctx ~tick name ok ev =
  let s = Span.begin_ ctx ~name ~now:tick in
  Span.event s ~now:tick ev;
  Span.end_ s ~now:tick ~ok

(* The admission pipeline: deadline, shed, breaker + degrade.  Returns
   the execution route or the rejection.  Runs under [mu].  Span
   completion never takes other locks, so tracing under [mu] cannot
   invert a lock order. *)
let admission_locked t ~ctx ~now:tick ~dl ~queue_depth req =
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
            let b', verdict = Breaker.admit b ~now:tick in
            set_breaker_locked t ~now:tick b';
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
                match mode_locked t with
                | Degrade.Read_only when not (is_write req) ->
                    if traced then
                      decide ctx ~tick "degrade" true
                        (Span.Degrade_mode "read-only");
                    `Execute Via_degraded_read
                | Degrade.Read_only ->
                    if traced then
                      decide ctx ~tick "degrade" false
                        (Span.Degrade_mode "read-only");
                    `Reject Write_degraded
                | _ -> `Reject Breaker_open)))
  end

let reject t ~now:tick r req =
  with_mu t (fun () ->
      t.n_rejected.(reason_index r) <- t.n_rejected.(reason_index r) + 1;
      if t.cfg.log_decisions then
        log_locked t "t=%d reject %s %s" tick (reason_to_string r)
          (req_to_string req));
  Rejected r

let exec_once t req =
  match req with
  | Insert (k, v) -> t.primary.insert k v
  | Delete k -> t.primary.delete k
  | Find k -> t.primary.find k

(* Spend one budget token for a retry; [false] = denied.  Under [mu]. *)
let budget_take_locked t ~now:tick =
  let b, granted = Retry.Budget.take t.budget_st ~now:tick in
  t.budget_st <- b;
  if not granted then t.n_budget_denied <- t.n_budget_denied + 1;
  granted

let served t ~route ~ok ~latency ~tick req =
  with_mu t (fun () ->
      t.n_served <- t.n_served + 1;
      if ok then t.n_served_ok <- t.n_served_ok + 1;
      if route <> Via_primary then
        t.n_served_degraded <- t.n_served_degraded + 1;
      (* [ok] is the dictionary's answer (a find can miss, an insert can
         hit a duplicate) — the execution itself succeeded, which is
         what the breaker and the shed estimator observe. *)
      observe_locked t ~now:tick ~ok:true ~latency;
      if t.cfg.log_decisions then
        log_locked t "t=%d served %s -> %b" tick (req_to_string req) ok);
  Served ok

let failed t ~tick req msg =
  with_mu t (fun () ->
      t.n_failed <- t.n_failed + 1;
      if t.cfg.log_decisions then
        log_locked t "t=%d failed %s: %s" tick (req_to_string req) msg);
  Failed msg

(* Execute one attempt with its span registered as the lane's current
   context, so the recorder's hooks (failed C&S, structure-op spans)
   attribute into it.  The closure only exists on the traced path —
   the off path must not allocate. *)
let run_attempt t aspan req =
  if Span.active aspan then
    Span.with_current aspan (fun () -> exec_once t req)
  else exec_once t req

(* The retry loop.  Each attempt re-checks the deadline first, so an
   admitted operation never starts executing past its deadline (the
   shedding invariant test_svc asserts); each retry must win a token
   from the budget before it may run. *)
let rec attempt_loop t ctx route req ~dl ~attempt =
  let t0 = now t in
  if Deadline.expired ~now:t0 dl then begin
    if Span.active ctx then
      decide ctx ~tick:t0 "deadline" false (Span.Deadline_check true);
    if attempt = 1 then
      (* Never executed: a pure rejection, not a failure. *)
      reject t ~now:t0 Expired req
    else failed t ~tick:t0 req (Printf.sprintf "deadline after %d attempts" (attempt - 1))
  end
  else
    let aspan = Span.begin_ ctx ~name:"attempt" ~now:t0 in
    match run_attempt t aspan req with
    | ok ->
        let t1 = now t in
        Span.end_ aspan ~now:t1 ~ok:true;
        served t ~route ~ok ~latency:(t1 - t0) ~tick:t1 req
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
          failed t ~tick:t1 req
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
                  (req_to_string req) (attempt + 1) d);
          if Span.active ctx then
            Span.event ctx ~now:t1
              (Span.Retry_wait { attempt = attempt + 1; delay = d });
          let wspan = Span.begin_ ctx ~name:"retry-wait" ~now:t1 in
          t.cfg.backoff d;
          Span.end_ wspan ~now:(now t) ~ok:true;
          attempt_loop t ctx route req ~dl ~attempt:(attempt + 1)
        end
        else begin
          if Span.active ctx then Span.event ctx ~now:t1 Span.Budget_denied;
          failed t ~tick:t1 req
            (Printf.sprintf "%s (retry budget exhausted after attempt %d)" msg
               attempt)
        end

let call t ?(ctx = Span.nil) ?deadline ?queue_depth req =
  let tick = now t in
  let dl = match deadline with Some d -> d | None -> default_deadline t in
  let decision =
    with_mu t (fun () -> admission_locked t ~ctx ~now:tick ~dl ~queue_depth req)
  in
  match decision with
  | `Reject r -> reject t ~now:tick r req
  | `Execute route ->
      with_mu t (fun () ->
          t.inflight <- t.inflight + 1;
          if t.cfg.log_decisions then
            log_locked t "t=%d admit %s%s" tick (req_to_string req)
              (match route with
              | Via_primary -> ""
              | Via_degraded_read -> " (read-only)"));
      Fun.protect
        ~finally:(fun () -> with_mu t (fun () -> t.inflight <- t.inflight - 1))
        (fun () -> attempt_loop t ctx route req ~dl ~attempt:1)

(* Coalesced path: per-element admission, then one pass through the
   batched entry points (single attempt — a batch is not retried; its
   failures surface per element as [Failed]). *)
let call_many t ?(ctx = Span.nil) ?deadline ?queue_depth reqs =
  let use_batched =
    match t.batched with
    | None -> false
    | Some _ ->
        List.length reqs >= t.cfg.coalesce_min || mode t = Degrade.Coalesce
  in
  if not use_batched then
    List.map (fun r -> call t ~ctx ?deadline ?queue_depth r) reqs
  else begin
    let b = Option.get t.batched in
    let tick = now t in
    let dl = match deadline with Some d -> d | None -> default_deadline t in
    let decisions =
      List.map
        (fun r ->
          let d =
            with_mu t (fun () ->
                admission_locked t ~ctx ~now:tick ~dl ~queue_depth r)
          in
          match d with
          | `Reject reason -> `Rejected (reject t ~now:tick reason r)
          | `Execute route -> `Run (r, route))
        reqs
    in
    (* Partition the admitted requests by kind, keeping input slots. *)
    let ins = ref [] and del = ref [] and fnd = ref [] in
    List.iteri
      (fun i d ->
        match d with
        | `Rejected _ -> ()
        | `Run (Insert (k, v), _) -> ins := (i, (k, v)) :: !ins
        | `Run (Delete k, _) -> del := (i, k) :: !del
        | `Run (Find k, _) -> fnd := (i, k) :: !fnd)
      decisions;
    let results = Array.make (List.length reqs) None in
    let t0 = now t in
    let run_batch part exec =
      let slots = List.rev_map fst part and args = List.rev_map snd part in
      match slots with
      | [] -> ()
      | _ -> (
          match exec args with
          | outs ->
              List.iter2 (fun i ok -> results.(i) <- Some (Ok ok)) slots outs
          | exception e ->
              let msg = Printexc.to_string e in
              List.iter (fun i -> results.(i) <- Some (Error msg)) slots)
    in
    let bspan = Span.begin_ ctx ~name:"batch-exec" ~now:t0 in
    let run () =
      run_batch !ins b.insert_batch;
      run_batch !del b.delete_batch;
      run_batch !fnd b.find_batch
    in
    if Span.active bspan then Span.with_current bspan run else run ();
    let t1 = now t in
    Span.end_ bspan ~now:t1 ~ok:true;
    let admitted = List.length !ins + List.length !del + List.length !fnd in
    let per_op_latency = if admitted = 0 then 0 else (t1 - t0) / admitted in
    List.mapi
      (fun i d ->
        match d with
        | `Rejected o -> o
        | `Run (r, route) -> (
            match results.(i) with
            | Some (Ok ok) ->
                served t ~route ~ok ~latency:per_op_latency ~tick:t1 r
            | Some (Error msg) -> failed t ~tick:t1 r (msg ^ " (batched)")
            | None -> failed t ~tick:t1 r "batch result missing"))
      decisions
  end

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
        mode = Degrade.mode_to_string (mode_locked t);
        shed_estimate = Option.map Shed.estimate t.shed_st;
        transitions = List.rev t.transitions;
      })

let decision_log t = with_mu t (fun () -> List.rev t.log)
