(* Source-level concurrency lint over the compiler-libs parsetree.

   Eleven rules, each motivated by a class of bug that type-checks fine
   but breaks the lock-free structures at runtime:

   - [no-raw-atomic]: every shared cell must go through the [Lf_kernel.Mem.S]
     seam.  A raw [Atomic.t] outside [lib/kernel/] is invisible to
     [Check_mem] / [Race_mem] / [Sim_mem], so the sanitizers, the race
     detector and the schedule explorer silently under-approximate.

   - [no-raw-dls]: domain-local state must also stay behind the kernel
     seam.  Raw [Domain.DLS] outside [lib/kernel/] bypasses [Lf_kernel.Hint]
     (validated per-domain predecessor caches) and
     [Lf_kernel.Splitmix.domain_local] (per-domain RNGs), so it is invisible
     to hint accounting and easy to get wrong under the simulator, where
     every process shares one domain.

   - [no-obj-magic]: never acceptable in this tree.

   - [no-poly-compare]: structural [=] / [compare] / [Hashtbl.hash] on node
     types follows [succ] and [backlink] pointers; backlinks make the graph
     cyclic, so polymorphic comparison can diverge (and is wrong anyway once
     descriptors carry marks).  Scoped to the libraries that define node
     types.  Comparing against a literal or a nullary constructor
     ([s.right <> Null], [x = 0]) is allowed: no pointer chasing there.

   - [no-fault-hooks]: fault injection must stay at the memory seam.  A
     structure that mentions [Lf_fault] (or hand-rolls delays with
     [Unix.sleep]/[sleepf]) has baked testing hooks into the algorithm;
     under [lib/] only [lib/fault/] (the injector itself) and
     [lib/workload/] (the chaos harnesses) may reference them.  Everything
     else receives faults transparently through a [Fault_mem]-wrapped
     memory.

   - [no-timing-in-structures]: same discipline for observability.  A
     structure that reads a clock ([Unix.gettimeofday]/[time]/[times],
     [Sys.time], [Mtime], [Ptime], [Monotonic_clock]) or reaches into the
     recorder or the one clock ([Lf_obs])
     has baked measurement into the algorithm: it perturbs the simulator's
     determinism and ties the structure to one observer.  Structure code is
     observed from outside, through [Lf_obs.Trace_mem] stacked at the
     memory seam and the span hooks in the harnesses.  Scoped to the
     structure libraries; kernel, harnesses, bench and bin measure freely.

   - [no-bare-atomic]: a sharper, model-checker-motivated companion to
     [no-raw-atomic], scoped to the structure libraries that the DPOR
     checker (lib/model) certifies plus the kernel that implements their
     seam.  The checker only gains a scheduling point at [Mem.S] accesses:
     a bare [Atomic.get]/[Atomic.compare_and_set]/... call site executes
     atomically between two visible steps, so DPOR's "exhausted" verdict
     silently stops covering interleavings through it.  Unlike
     [no-raw-atomic] this rule also catches the [Stdlib.Atomic.get]
     spelling (whose path root is [Stdlib], not [Atomic]), and it fires
     inside [lib/kernel/] — the seam implementations themselves are the
     waivered exceptions, not the whole directory.

   - [no-unbounded-retry]: a retry loop in the service layer ([lib/svc/])
     that never consults a [Retry.Budget] can amplify a failure storm
     without bound — exactly the cascade the layer exists to prevent.
     Flags [while] loops and recursive bindings that handle exceptions
     unless a budget identifier appears in the body.  The "budgets off"
     ablation uses [Budget.unlimited]: same code path, so the obligation
     holds even there.

   - [no-cross-shard-state]: the sharding layer's containment claim —
     a fault blast radius of one shard — holds only if shards share no
     mutable state.  A module-level [ref]/[Hashtbl.t]/[Mutex.t]/... in
     [lib/shard/] is process-wide: every router and every shard funnels
     through it, so one stalled shard can wedge or corrupt the others
     through a side channel the per-shard breakers never see.  Flags
     mutable-state allocations evaluated at module initialization time
     (not ones deferred under a function, which are per-instance); the
     router's bounded decision journal is the one reviewed waiver.

   - [no-orphan-span]: in the traced layers ([lib/svc/], [lib/shard/])
     a binding that opens a request span ([Span.begin_] / [Span.root])
     must also close one ([Span.end_], or a [Fun.protect] whose finally
     does).  The flight recorder only retains COMPLETED roots, so a
     span leaked on an exception path drops exactly the anomalous
     request the recorder exists to capture.

   - [no-policy-sleep]: the policy layers ([lib/svc/], [lib/shard/]) —
     breaker, shed, retry pacing, the shard supervisor — must pace
     themselves by comparing Clock-seam ticks ([poll_every], backoff
     deadlines as tick arithmetic), never by sleeping.  A
     [Unix.sleep]/[sleepf]/[Thread.delay] inside a policy state machine
     blocks the caller's lane, skews every decision it shares a mutex
     with, and makes replay diverge from production (the simulated
     clock cannot advance through a real sleep).  Injected backoff
     closures (bench/bin hand one in) are the sanctioned escape hatch:
     the *policy* computes the delay, the *harness* decides how to wait.

   The rules are path-scoped and a small waiver table exempts known-benign
   files, each with a reason that is printed if the waiver is ever reported. *)

type violation = { file : string; line : int; rule : string; message : string }

let rule_raw_atomic = "no-raw-atomic"
let rule_raw_dls = "no-raw-dls"
let rule_obj_magic = "no-obj-magic"
let rule_poly_compare = "no-poly-compare"
let rule_fault_hooks = "no-fault-hooks"
let rule_timing = "no-timing-in-structures"
let rule_unbounded_retry = "no-unbounded-retry"
let rule_bare_atomic = "no-bare-atomic"
let rule_cross_shard = "no-cross-shard-state"
let rule_orphan_span = "no-orphan-span"
let rule_policy_sleep = "no-policy-sleep"
let rule_parse_error = "parse-error"

(* Directories where shared cells are allowed to be raw atomics: the kernel
   implements the seam itself; tests, examples and this tool are harness
   code, not structure code.  The same scoping applies to raw [Domain.DLS]
   ([Lf_kernel.Hint] and [Splitmix.domain_local] are the kernel's own
   implementations of the seam). *)
let atomic_exempt_prefixes = [ "lib/kernel/"; "test/"; "examples/"; "tools/" ]

(* The only places under lib/ allowed to speak fault injection: the
   injector itself and the chaos harnesses built on it.  Code outside lib/
   (bench, bin, test, tools) is harness code and unrestricted. *)
let fault_allowed_prefixes = [ "lib/fault/"; "lib/workload/" ]

(* Libraries that define node types with succ/backlink pointers. *)
let poly_scope_prefixes =
  [ "lib/core/"; "lib/skiplist/"; "lib/baselines/"; "lib/hashtable/"; "lib/pqueue/" ]

(* Structure code that must stay clock- and recorder-free: the same
   libraries.  Harness trees, the kernel and lib/obs itself measure. *)
let timing_scope_prefixes = poly_scope_prefixes

(* Code the DPOR model checker certifies (lib/model scenarios cover these
   structures), plus the kernel that implements their memory seam: every
   atomic operation must be a [Mem.S] access or the checker's scheduling
   points under-approximate.  The seam implementations themselves are
   individually waivered below. *)
let bare_atomic_scope_prefixes =
  [ "lib/core/"; "lib/skiplist/"; "lib/hashtable/"; "lib/pqueue/"; "lib/kernel/" ]

(* The service layer: every retry loop must consult a [Retry.Budget], so
   an unbudgeted retry path cannot sneak in (the "budgets off" ablation
   uses [Budget.unlimited] — same code path, different answer). *)
let retry_scope_prefixes = [ "lib/svc/" ]

(* The sharding layer: per-shard failure containment is an isolation
   property, so mutable state evaluated at module initialization (shared
   by every shard and every router in the process) is a containment
   bug unless deliberately waivered. *)
let cross_shard_scope_prefixes = [ "lib/shard/" ]

(* The layers that open request spans: an unclosed span never reaches the
   flight recorder's ring (only completed roots are retained), so a leak
   silently drops exactly the anomalous requests the recorder exists to
   capture.  Syntactic, at binding granularity: a binding that opens must
   also close (or delegate closing to [Fun.protect ~finally]). *)
let orphan_span_scope_prefixes = [ "lib/svc/"; "lib/shard/" ]

(* The policy layers: every state machine in them (breaker, shed, retry
   pacing, the shard supervisor) paces itself with Clock-seam tick
   comparisons so decisions replay under the simulator.  A literal sleep
   in policy code blocks the lane and breaks replay; waiting is the
   harness's job, via the injected backoff closure. *)
let policy_sleep_scope_prefixes = [ "lib/svc/"; "lib/shard/" ]

(* file, rule, reason.  Waivers are deliberate, reviewed exceptions. *)
let waivers =
  [
    ( "lib/baselines/lazy_list.ml",
      rule_raw_atomic,
      "lock-based baseline for EXP comparisons; not a subject of the \
       checked-memory sanitizers" );
    ( "lib/lin/recorder.ml",
      rule_raw_atomic,
      "history recorder infrastructure: its event counter is harness state, \
       not structure state" );
    ( "lib/pqueue/pqueue.ml",
      rule_raw_atomic,
      "timestamp counter for priority ties; never CASed as part of the \
       node protocol" );
    ( "lib/kernel/atomic_mem.ml",
      rule_bare_atomic,
      "the production implementation of the Mem.S seam itself; its bare \
       atomics ARE the seam's accesses" );
    ( "lib/kernel/counting_mem.ml",
      rule_bare_atomic,
      "a Mem.S implementation (the counting seam) plus its observer-side \
       registry; both sit below the seam by construction" );
    ( "lib/kernel/hint.ml",
      rule_bare_atomic,
      "the slot array and the domain-index free list: a domain swaps in \
       a copy of the array only on its first use of a cache, and payloads \
       structures read are plain fields that are validated, never \
       scheduling points, so no protocol access is lost" );
    ( "lib/pqueue/pqueue.ml",
      rule_bare_atomic,
      "timestamp counter for priority ties: a fetch-and-add whose value \
       only breaks ordering ties, never part of the node protocol; the \
       model-checked scenarios pin max_level=1 so the counter is the only \
       access DPOR does not schedule" );
    ( "lib/workload/runner.ml",
      rule_raw_atomic,
      "start barrier for benchmark domains; harness synchronization" );
    ( "lib/hashtable/lf_hashtable.ml",
      rule_poly_compare,
      "Hashtbl.hash on string keys, which are acyclic and node-free" );
    ( "lib/obs/recorder.ml",
      rule_raw_atomic,
      "the recorder's domain registry: observer-side harness state on the \
       consumer side of the seam, never part of a structure's protocol" );
    ( "lib/obs/recorder.ml",
      rule_raw_dls,
      "per-domain recording state: the recorder is the observer, not a \
       structure; DLS is what keeps its hot path free of synchronization" );
    ( "bench/exp19.ml",
      rule_raw_atomic,
      "start barrier for benchmark domains; harness synchronization" );
    ( "bench/exp20.ml",
      rule_raw_atomic,
      "cross-worker goodput/retry counters on the measurement side of the \
       service layer; never part of a structure's protocol" );
    ( "bench/exp23.ml",
      rule_raw_atomic,
      "per-shard goodput counters on the measurement side of the shard \
       router; never part of a structure's protocol" );
    ( "bench/exp25.ml",
      rule_raw_atomic,
      "goodput time-buckets, stale-read counter and the fault timestamp \
       on the measurement side of the self-healing harness; never part \
       of a structure's protocol" );
    ( "lib/shard/router.ml",
      rule_cross_shard,
      "the rebalance decision journal: a bounded, process-wide log of \
       begin/end lines for post-mortems, deliberately one timeline across \
       routers; it carries no routing state — routing is a pure function \
       of ring + migration watermark — so no shard's behaviour can flow \
       through it into another shard" );
  ]

let waived path rule =
  List.exists (fun (f, r, _) -> String.equal f path && String.equal r rule) waivers

let has_prefix path prefixes =
  List.exists (fun p -> String.length path >= String.length p
                        && String.equal (String.sub path 0 (String.length p)) p)
    prefixes

(* [all:true] (fixture mode) activates every rule on every path and ignores
   waivers, so fixtures exercise the rules regardless of where they live. *)
let rule_active ~all path rule =
  all
  || (not (waived path rule))
     &&
     if String.equal rule rule_raw_atomic || String.equal rule rule_raw_dls
     then not (has_prefix path atomic_exempt_prefixes)
     else if String.equal rule rule_poly_compare then
       has_prefix path poly_scope_prefixes
     else if String.equal rule rule_fault_hooks then
       has_prefix path [ "lib/" ] && not (has_prefix path fault_allowed_prefixes)
     else if String.equal rule rule_timing then
       has_prefix path timing_scope_prefixes
     else if String.equal rule rule_unbounded_retry then
       has_prefix path retry_scope_prefixes
     else if String.equal rule rule_bare_atomic then
       has_prefix path bare_atomic_scope_prefixes
     else if String.equal rule rule_cross_shard then
       has_prefix path cross_shard_scope_prefixes
     else if String.equal rule rule_orphan_span then
       has_prefix path orphan_span_scope_prefixes
     else if String.equal rule rule_policy_sleep then
       has_prefix path policy_sleep_scope_prefixes
     else true

open Parsetree

let root_of_lid lid =
  let rec go = function
    | Longident.Lident s -> s
    | Longident.Ldot (l, _) -> go l
    | Longident.Lapply (l, _) -> go l
  in
  go lid

(* An operand that makes poly [=]/[<>] safe: a constant, or a constructor
   with no payload ([Null], [None], [true], ...). *)
let is_literalish (e : expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_variant (_, None) -> true
  | _ -> false

let atomic_msg =
  "raw Atomic outside lib/kernel; route shared cells through Lf_kernel.Mem.S \
   so checked memories observe the access"

(* The operation call sites [no-bare-atomic] watches for.  Qualified
   through [Atomic] or [Stdlib.Atomic] — the latter has root [Stdlib], so
   [no-raw-atomic]'s root test never sees it. *)
let atomic_op_names =
  [
    "make"; "make_contended"; "get"; "set"; "exchange"; "compare_and_set";
    "compare_exchange"; "fetch_and_add"; "incr"; "decr";
  ]

let lid_is_bare_atomic_op = function
  | Longident.Ldot (Longident.Lident "Atomic", op)
  | Longident.Ldot (Longident.Ldot (Longident.Lident "Stdlib", "Atomic"), op)
    ->
      List.mem op atomic_op_names
  | _ -> false

let bare_atomic_msg =
  "bare atomic operation in model-checked structure code; the DPOR checker \
   only schedules at Mem.S accesses, so interleavings through this step are \
   invisible to certification — take the memory as a functor argument and \
   go through it"

(* [Domain.DLS] anywhere on the path spine: [Domain.DLS.get], a bare
   [Domain.DLS], ['a Domain.DLS.key], ... *)
let rec lid_is_dls = function
  | Longident.Ldot (Longident.Lident "Domain", "DLS") -> true
  | Longident.Ldot (l, _) | Longident.Lapply (l, _) -> lid_is_dls l
  | Longident.Lident _ -> false

let dls_msg =
  "raw Domain.DLS outside lib/kernel; use Lf_kernel.Hint (validated \
   per-domain caches) or Lf_kernel.Splitmix.domain_local (per-domain RNGs) \
   so domain-local state stays behind the kernel seam"

let fault_msg =
  "fault-injection hook outside lib/fault and lib/workload; structures must \
   stay fault-agnostic — stack Lf_fault.Fault_mem at the memory seam and \
   drive it from the chaos harnesses, bench or test code"

let lid_is_unix_sleep = function
  | Longident.Ldot (Longident.Lident "Unix", ("sleep" | "sleepf")) -> true
  | _ -> false

let lid_is_thread_delay = function
  | Longident.Ldot (Longident.Lident "Thread", "delay") -> true
  | _ -> false

let policy_sleep_msg =
  "sleeping inside policy code; breaker/shed/supervisor state machines must \
   pace themselves by comparing Clock-seam ticks (poll_every gates, backoff \
   deadlines as tick arithmetic) so decisions replay under the simulated \
   clock — never Unix.sleep/sleepf or Thread.delay.  If a caller must wait, \
   compute the delay in the policy and hand the waiting to an injected \
   backoff closure in the harness"

(* Clock reads and recorder references.  [Unix.sleep]/[sleepf] stay with
   [no-fault-hooks]: they are delays, not measurements. *)
let lid_is_timing lid =
  match lid with
  | Longident.Ldot (Longident.Lident "Unix", ("gettimeofday" | "time" | "times"))
  | Longident.Ldot (Longident.Lident "Sys", "time") ->
      true
  | _ -> (
      match root_of_lid lid with
      | "Mtime" | "Ptime" | "Monotonic_clock" | "Lf_obs" -> true
      | _ -> false)

let timing_msg =
  "clock read or recorder reference inside structure code; structures are \
   observed from outside — stack Lf_obs.Trace_mem at the memory seam and \
   measure from the harnesses, bench or test code"

let poly_msg what =
  what
  ^ " can chase succ/backlink pointers into cycles on node types; use the \
     key module's comparison instead"

(* no-unbounded-retry: a loop that retries (a [while], or a recursive
   binding that handles exceptions — [try] or a [match] with an
   [exception] case) must mention a budget somewhere in its body: an
   identifier with a [Budget] path component, or whose name contains
   "budget".  Syntactic by design — the lint keeps the author honest
   about consulting Retry.Budget; the conservation tests check the
   semantics. *)

exception Found_in_subtree

let expr_contains pred (e : Parsetree.expression) =
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          if pred e then raise Found_in_subtree else default.expr it e);
    }
  in
  try
    it.expr it e;
    false
  with Found_in_subtree -> true

let lid_components lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply (l1, l2) -> go (go acc l2) l1
  in
  go [] lid

let contains_budget_word s =
  let s = String.lowercase_ascii s in
  let n = String.length s and m = String.length "budget" in
  let rec at i =
    i + m <= n && (String.equal (String.sub s i m) "budget" || at (i + 1))
  in
  at 0

let mentions_budget =
  expr_contains (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } ->
          List.exists
            (fun c -> String.equal c "Budget" || contains_budget_word c)
            (lid_components txt)
      | _ -> false)

let is_retryish =
  expr_contains (fun e ->
      match e.pexp_desc with
      | Pexp_try _ -> true
      | Pexp_match (_, cases) ->
          List.exists
            (fun (c : case) ->
              match c.pc_lhs.ppat_desc with
              | Ppat_exception _ -> true
              | _ -> false)
            cases
      | _ -> false)

let unbounded_retry_msg =
  "retry loop without a budget consultation; every retry decision in \
   lib/svc must go through Retry.Budget (Budget.take — Budget.unlimited \
   for the ablation) so failure storms cannot amplify without bound"

(* no-cross-shard-state: mutable-state allocators whose result, bound at
   module initialization time, becomes process-wide state shared by every
   shard (and every router) in the process.  Allocations under a lambda
   are per-call/per-instance and therefore fine — [create] builds each
   router's state fresh. *)
let lid_is_mutable_alloc = function
  | Longident.Lident "ref"
  | Longident.Ldot (Longident.Lident "Stdlib", "ref") ->
      true
  | Longident.Ldot
      ( Longident.Lident
          ("Hashtbl" | "Queue" | "Stack" | "Buffer" | "Mutex" | "Condition"),
        "create" ) ->
      true
  | Longident.Ldot (Longident.Lident "Atomic", ("make" | "make_contended")) ->
      true
  | Longident.Ldot
      (Longident.Lident "Array", ("make" | "create" | "init" | "make_matrix"))
    ->
      true
  | Longident.Ldot (Longident.Lident "Bytes", ("make" | "create")) -> true
  | _ -> false

let cross_shard_msg =
  "module-level mutable state in the sharding layer: every shard and every \
   router in the process shares this cell, so one shard's failure can leak \
   into another's behaviour behind the per-shard breakers' backs; allocate \
   it inside [create] and carry it in the router/shard record instead"

(* Mutable allocations evaluated when the module initializes: walk a
   top-level binding's expression but do not descend into function bodies
   (deferred) — a [let f () = ref 0] allocates per call, not per module. *)
let iter_module_init_allocs f (e : Parsetree.expression) =
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
            when lid_is_mutable_alloc txt ->
              f loc;
              default.expr it e
          | _ -> default.expr it e);
    }
  in
  it.expr it e

(* no-orphan-span: a span open is a [Span.begin_] or [Span.root]
   application; a close is a [Span.end_] or a [Fun.protect] (whose
   [~finally] is where the close lives in the early-exit-heavy
   bindings).  Like [no-unbounded-retry], the check is syntactic and
   binding-granular by design: it keeps the author honest about pairing
   opens with closes on every exit path, while the trace tests check
   the semantics (well-formed trees, completed roots). *)
let lid_is_span_open lid =
  match List.rev (lid_components lid) with
  | op :: "Span" :: _ -> String.equal op "begin_" || String.equal op "root"
  | _ -> false

let lid_is_span_close lid =
  match List.rev (lid_components lid) with
  | "end_" :: "Span" :: _ -> true
  | "protect" :: "Fun" :: _ -> true
  | _ -> false

let opens_span =
  expr_contains (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> lid_is_span_open txt
      | _ -> false)

let closes_span =
  expr_contains (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> lid_is_span_close txt
      | _ -> false)

let orphan_span_msg =
  "span opened without a close in the same binding: pair every \
   Span.begin_/Span.root with a Span.end_ on all exit paths (or close \
   from Fun.protect ~finally) — an unclosed span never completes, so \
   the flight recorder silently drops exactly the request it was \
   tracing"

let compare_lr (l1, r1) (l2, r2) =
  match Int.compare l1 l2 with 0 -> String.compare r1 r2 | c -> c

let check_file ~all path =
  let src =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let out = ref [] in
  let report (loc : Location.t) rule message =
    if rule_active ~all path rule then
      out :=
        { file = path; line = loc.loc_start.Lexing.pos_lnum; rule; message }
        :: !out
  in
  (* [args]: the first arguments when the ident is the head of an
     application, [None] when it appears bare (e.g. passed as a function). *)
  let check_ident lid (loc : Location.t) args =
    if String.equal (root_of_lid lid) "Atomic" then
      report loc rule_raw_atomic atomic_msg;
    if lid_is_bare_atomic_op lid then
      report loc rule_bare_atomic bare_atomic_msg;
    if lid_is_dls lid then report loc rule_raw_dls dls_msg;
    if String.equal (root_of_lid lid) "Lf_fault" || lid_is_unix_sleep lid then
      report loc rule_fault_hooks fault_msg;
    if lid_is_unix_sleep lid || lid_is_thread_delay lid then
      report loc rule_policy_sleep policy_sleep_msg;
    if lid_is_timing lid then report loc rule_timing timing_msg;
    (match lid with
    | Longident.Ldot (Lident "Obj", "magic") ->
        report loc rule_obj_magic
          "Obj.magic defeats the type checker; there is no sound use of it \
           in this tree"
    | _ -> ());
    let is_poly name =
      match lid with
      | Longident.Lident s -> String.equal s name
      | Longident.Ldot (Lident "Stdlib", s) -> String.equal s name
      | _ -> false
    in
    if is_poly "compare" then
      report loc rule_poly_compare (poly_msg "polymorphic compare")
    else if is_poly "=" || is_poly "<>" then begin
      let allowed =
        match args with
        | Some ((_, a) :: (_, b) :: _) -> is_literalish a || is_literalish b
        | _ -> false
      in
      if not allowed then
        report loc rule_poly_compare (poly_msg "polymorphic equality")
    end
    else
      match lid with
      | Longident.Ldot (Lident "Hashtbl", "hash") ->
          report loc rule_poly_compare (poly_msg "Hashtbl.hash")
      | _ -> ()
  in
  (* A [while] loop is a retry loop by construction; a recursive binding
     only when its body handles exceptions (otherwise it is ordinary
     recursion over data).  Either way, a budget identifier somewhere in
     the body discharges the obligation. *)
  let check_retry_bindings vbs =
    List.iter
      (fun (vb : value_binding) ->
        if is_retryish vb.pvb_expr && not (mentions_budget vb.pvb_expr) then
          report vb.pvb_loc rule_unbounded_retry unbounded_retry_msg)
      vbs
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_value (rf, vbs) ->
              if rf = Recursive then check_retry_bindings vbs;
              List.iter
                (fun (vb : value_binding) ->
                  if opens_span vb.pvb_expr && not (closes_span vb.pvb_expr)
                  then report vb.pvb_loc rule_orphan_span orphan_span_msg)
                vbs
          | _ -> ());
          default.structure_item it si);
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
              check_ident txt loc (Some args);
              List.iter (fun (_, a) -> it.expr it a) args
          | Pexp_ident { txt; loc } ->
              check_ident txt loc None;
              default.expr it e
          | Pexp_construct ({ txt; loc }, _)
            when String.equal (root_of_lid txt) "Lf_fault" ->
              report loc rule_fault_hooks fault_msg;
              default.expr it e
          | Pexp_while (_, _) ->
              if not (mentions_budget e) then
                report e.pexp_loc rule_unbounded_retry unbounded_retry_msg;
              default.expr it e
          | Pexp_let (Recursive, vbs, _) ->
              check_retry_bindings vbs;
              default.expr it e
          | _ -> default.expr it e);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; loc } when String.equal (root_of_lid txt) "Atomic"
            ->
              report loc rule_raw_atomic atomic_msg
          | Pmod_ident { txt; loc } when lid_is_dls txt ->
              report loc rule_raw_dls dls_msg
          | Pmod_ident { txt; loc }
            when String.equal (root_of_lid txt) "Lf_fault" ->
              report loc rule_fault_hooks fault_msg
          | Pmod_ident { txt; loc } when lid_is_timing txt ->
              report loc rule_timing timing_msg
          | _ -> ());
          default.module_expr it me);
      typ =
        (fun it ty ->
          (match ty.ptyp_desc with
          | Ptyp_constr ({ txt; loc }, _)
            when String.equal (root_of_lid txt) "Atomic" ->
              report loc rule_raw_atomic atomic_msg
          | Ptyp_constr ({ txt; loc }, _) when lid_is_dls txt ->
              report loc rule_raw_dls dls_msg
          | Ptyp_constr ({ txt; loc }, _)
            when String.equal (root_of_lid txt) "Lf_fault" ->
              report loc rule_fault_hooks fault_msg
          | Ptyp_constr ({ txt; loc }, _) when lid_is_timing txt ->
              report loc rule_timing timing_msg
          | _ -> ());
          default.typ it ty);
    }
  in
  (* no-cross-shard-state: only bindings at module scope — the top level
     and nested module structures — initialize with the module; a
     [let module] inside a function body is per-call and never reached
     by this walk. *)
  let rec check_module_state (str : structure) =
    List.iter
      (fun (si : structure_item) ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : value_binding) ->
                iter_module_init_allocs
                  (fun loc -> report loc rule_cross_shard cross_shard_msg)
                  vb.pvb_expr)
              vbs
        | Pstr_module mb -> check_module_expr mb.pmb_expr
        | Pstr_recmodule mbs ->
            List.iter (fun (mb : module_binding) -> check_module_expr mb.pmb_expr) mbs
        | Pstr_include incl -> check_module_expr incl.pincl_mod
        | _ -> ())
      str
  and check_module_expr (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure str -> check_module_state str
    | Pmod_functor (_, body) -> check_module_expr body
    | Pmod_constraint (me, _) -> check_module_expr me
    | _ -> ()
  in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  (match Parse.implementation lexbuf with
  | str ->
      it.structure it str;
      check_module_state str
  | exception e ->
      out :=
        {
          file = path;
          line = 1;
          rule = rule_parse_error;
          message = Printexc.to_string e;
        }
        :: !out);
  (* One finding per (line, rule): helping code often hits the same ident
     twice on a line, and the fixture EXPECT markers are per-line. *)
  List.sort_uniq
    (fun a b -> compare_lr (a.line, a.rule) (b.line, b.rule))
    !out

let pp_violation oc v =
  Printf.fprintf oc "%s:%d: [%s] %s\n" v.file v.line v.rule v.message
