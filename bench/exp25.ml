(* EXP-25: self-healing shards — time-to-recovery, goodput during the
   heal, and the staleness contract (DESIGN.md §15).

   EXP-23 established containment: a shard-targeted fault degrades only
   its own keyspace.  This experiment closes the loop — the supervisor
   watches per-shard health and evacuates slots off a persistently-sick
   shard by itself, so the service RECOVERS the lost keyspace without
   operator intervention.  The grid crosses two faults with two
   configurations:

   Faults (injected a third of the way into an open-loop window, at the
   victim shard, and never repaired by hand):
   - kill:  the victim's backend throws on every access — a dead
            process.  Rebalance alone cannot evacuate it (the copy
            would need the corpse to answer reads); only the victim
            slot's lagged replica can, via promotion.  Until the
            promotion lands, reads of the victim keyspace are served
            from the replica — every one tagged [Served_stale].
   - stall: every shared-memory access of the victim burns pause
            rounds (EXP-23's plan).  The shard is alive but sick; the
            supervisor evacuates its slot with a plain copy rebalance.

   Configurations: "supervised" (breaker containment + the supervisor
   ticking on its own domain, replicas for the kill fault) vs
   "containment-only" (EXP-23's endpoint: the breaker fails fast, but
   nobody moves the keyspace, and there is no replica to answer for
   the dead shard).

   Measurement: total goodput (served within the EXP-20/23 standard of
   20ms from arrival) per fixed time bucket across the window.
   Time-to-recovery (TTR) is the gap between the fault and the end of
   the first post-fault bucket whose goodput is back at >= 80% of the
   pre-fault per-bucket average; the tail ratio is the mean of the last
   five full buckets against that same baseline.

   PASS (full runs):
   - kill/supervised: at least one promotion completes, a TTR exists,
     and tail goodput >= 80% of pre-fault — the keyspace came back by
     itself;
   - stall/supervised: at least one heal completes, a TTR exists, and
     tail goodput >= 80% of pre-fault;
   - kill/supervised actually exercised the failover: > 0 stale-tagged
     reads served from the replica during the gap;
   - containment-only contrast: the unsupervised kill run's tail stays
     below the supervised one (the lost keyspace never returns);
   - staleness oracle, every run: the count of [Served_stale] outcomes
     observed by callers equals the router's replica-read counter —
     zero replica answers laundered into fresh [Served];
   - data check, both supervised runs: every prefilled key that no
     request wrote is present on its owner after the window, and on no
     other live shard — the heal moved every key of the slot.  The
     kill run's replica is seeded with the victim slot's prefill, as a
     replica attached at boot would be, so its promotion carries the
     slot's data. *)

open Lf_workload
module K = Lf_kernel.Ordered.Int
module Svc = Lf_svc.Svc
module Clock = Lf_svc.Clock
module Deadline = Lf_svc.Deadline
module Breaker = Lf_svc.Breaker
module Fault = Lf_fault.Fault
module FP = Lf_kernel.Fault_point
module Hash_ring = Lf_shard.Hash_ring
module Router = Lf_shard.Router
module Health = Lf_shard.Health
module Replica = Lf_shard.Replica
module Supervisor = Lf_shard.Supervisor

let workers = 2
let shards = 3
let key_range = 4096

(* Below the 2-worker capacity of this single-core box (~9k/s): in an
   overloaded regime, killing a shard RAISES survivor goodput (fail-fast
   frees capacity) and time-to-recovery is meaningless.  The question
   here is recovery of lost keyspace, not saturation behaviour — that is
   EXP-20/23's ground. *)
let rate = 6_000
let deadline_std_ms = 20
let mix = { Opgen.insert_pct = 20; delete_pct = 20 }
let window () = if !Bench_json.quick then 0.6 else 3.0
let bucket_ms () = if !Bench_json.quick then 30 else 50

let req_of_op = function
  | Opgen.Insert k -> Svc.Insert (k, k)
  | Opgen.Delete k -> Svc.Delete k
  | Opgen.Find k -> Svc.Find k

(* Per-shard fault seam (EXP-23's shape) plus a kill switch: [killed]
   makes every backend call throw, like a dead process. *)
type faulty = {
  f_backend : Router.backend;
  f_next_key : int -> int option;  (* the list's successor query *)
  f_install : Fault.plan -> unit;
  f_uninstall : unit -> unit;
  f_killed : bool ref;
}

let mk_faulty ~ring i =
  let module FM = Lf_fault.Fault_mem.Make (Lf_kernel.Atomic_mem) in
  let module L = Lf_list.Fr_list.Make (K) (FM) in
  let t = L.create () in
  for k = 0 to key_range - 1 do
    if k land 1 = 0 && Hash_ring.shard_of ring k = i then ignore (L.insert t k k)
  done;
  let killed = ref false in
  let guard () = if !killed then failwith "shard dead" in
  {
    f_backend =
      {
        Router.insert = (fun k v -> guard (); L.insert t k v);
        delete = (fun k -> guard (); L.delete t k);
        find = (fun k -> guard (); L.find t k);
        batched = None;
      };
    f_next_key = (fun k -> guard (); Option.map fst (L.find_ge t k));
    f_install = FM.install;
    f_uninstall = (fun () -> FM.uninstall ());
    f_killed = killed;
  }

let stall_plan =
  Fault.make_plan ~seed:41
    [ { Fault.point = FP.Any; action = Stall 2; mode = Always; lane = None } ]

type fault = Kill | Stall

let fault_name = function Kill -> "kill" | Stall -> "stall"

type out = {
  o_pre : float;  (* pre-fault per-bucket goodput average *)
  o_ttr_ms : int;  (* -1 when goodput never recovered in-window *)
  o_tail : float;  (* tail per-bucket goodput / pre-fault average *)
  o_stale_served : int;  (* Served_stale outcomes seen by callers *)
  o_stale_router : int;  (* Router.stale_reads — must match *)
  o_served : int;
  o_failed : int;
  o_heals : int;
  o_promotions : int;
  o_aborts : int;
  o_buckets : int array;
  o_fault_bucket : int;
  o_moved : int;  (* keys moved by completed heals *)
  o_untouched : int;  (* prefilled keys no request wrote *)
  o_present : int;  (* of which on their owner and on no other live shard *)
  o_dup : int;  (* of which on more than one live shard *)
  o_misplaced : int;  (* of which on one live shard that is not the owner *)
}

let run_one ~clock ~fault ~supervised =
  let ring = Hash_ring.create ~seed:13 ~shards () in
  let f = Array.init shards (mk_faulty ~ring) in
  let victim_slot = 0 in
  let victim = Hash_ring.owner ring victim_slot in
  let ms = Clock.ms clock in
  let svc_config _ =
    Svc.config ~clock
      (* The latency threshold separates the fault from the noise floor:
         a stalled op costs milliseconds, a healthy op microseconds even
         after a heal doubles a shard's list.  EXP-23's much tighter
         16us threshold would flap healthy breakers open under the
         stall's global contention (single core) and collapse goodput
         everywhere — a detection cascade, not containment. *)
      ~breaker:
        (Some
           (Breaker.config ~window:(ms 100) ~min_calls:8 ~failure_pct:50
              ~latency_threshold:(ms 1) ~open_for:(ms 100) ~probes:3 ()))
      ~read_only_when_open:false
      ()
  in
  (* Hedging is the kill fault's failover seam (dead backend -> replica,
     stale-tagged).  For the stall fault it is off, for EXP-23's reason:
     the raw backend IS the fault, and a hedge would re-pay the stall
     the breaker just contained. *)
  let router =
    Router.create ~hedge_reads:(fault = Kill)
      ~next_key:(fun i k -> f.(i).f_next_key k)
      ~ring ~svc_config
      (fun i -> f.(i).f_backend)
  in
  (* The kill fault is only survivable with a replica of the victim's
     slot; the supervised run replicates it on the next shard over,
     seeded with the slot's prefill — what a replica attached at boot
     would hold.  Containment-only runs get no replica — that is the
     contrast. *)
  if supervised && fault = Kill then begin
    let r = Replica.create () in
    Replica.add_slot r ~slot:victim_slot ~on:((victim + 1) mod shards);
    for k = 0 to key_range - 1 do
      if k land 1 = 0 && Hash_ring.slot_of ring k = victim_slot then
        Replica.record r ~slot:victim_slot ~now:(Clock.now clock)
          (Replica.Put (k, k))
    done;
    ignore (Replica.apply r);
    Router.attach_replicas router r
  end;
  let sup =
    if supervised then
      Some
        (* [shed_sick_pct 100] disables shedding-based sickness (the
           trigger is strict-greater): on this single-core box a GC or
           scheduling pause expires arrival-anchored deadlines on EVERY
           shard at once, and any rejected-fraction threshold would read
           that uniform spike as "all shards sick" and evacuate healthy
           shards — possibly onto the future victim.  Both faults here
           are breaker-detected (h_ok), which is per-shard by
           construction. *)
        (Supervisor.create
           (Supervisor.config ~poll_every:(ms 15) ~sick_after:2
              ~healthy_after:1 ~move_budget:2 ~backoff_base:(ms 50)
              ~backoff_max:(ms 400) ~shed_sick_pct:100 ~apply_budget:8192
              ~clock ())
           ~shards)
    else None
  in
  let w = window () in
  let bms = bucket_ms () in
  let bucket_ns = bms * 1_000_000 in
  let nb = int_of_float (w *. 1000.) / bms in
  let buckets = Array.init (nb + 4) (fun _ -> Atomic.make 0) in
  let stale_served = Atomic.make 0 in
  let written = Array.init key_range (fun _ -> Atomic.make false) in
  let start = Clock.now clock in
  let fault_ns = Atomic.make 0 in
  let stop = Atomic.make false in
  let faulter =
    Domain.spawn (fun () ->
        Unix.sleepf (w /. 3.);
        Atomic.set fault_ns (Clock.now clock);
        match fault with
        | Kill -> f.(victim).f_killed := true
        | Stall -> f.(victim).f_install stall_plan)
  in
  (* The healer domain is the serve loop's stand-in: it TICKS the
     supervisor; all pacing decisions are clock-tick comparisons inside
     the policy (the sleep here is the harness's, not the policy's).
     It arms only after a grace period: the open loop's cold start
     (domain spawn, allocator warmup) expires arrival deadlines on
     every shard at once, and a supervisor watching that would evacuate
     healthy shards — possibly onto the future victim. *)
  let healer =
    Option.map
      (fun sup ->
        Domain.spawn (fun () ->
            Unix.sleepf (w /. 6.);
            while not (Atomic.get stop) do
              ignore (Supervisor.run_tick sup router);
              Unix.sleepf 0.002
            done))
      sup
  in
  let std = ms deadline_std_ms in
  let serve ~arrival_ns ~queue_depth op =
    (match op with
    | Opgen.Insert k | Opgen.Delete k -> Atomic.set written.(k) true
    | Opgen.Find _ -> ());
    let dl = Deadline.at (arrival_ns + std) in
    let good () =
      if Clock.now clock - arrival_ns <= std then begin
        let b = (arrival_ns - start) / bucket_ns in
        if b >= 0 && b < Array.length buckets then Atomic.incr buckets.(b)
      end
    in
    match Router.call router ~deadline:dl ~queue_depth (req_of_op op) with
    | Svc.Served ok -> good (); `Served ok
    | Svc.Served_stale (ok, _) ->
        Atomic.incr stale_served;
        good ();
        `Served ok
    | Svc.Rejected _ -> `Rejected
    | Svc.Failed _ -> `Failed
  in
  let r =
    Runner.run_open_loop ~workers ~rate ~window_s:w ~key_range ~mix ~seed:29
      ~serve ()
  in
  Domain.join faulter;
  Atomic.set stop true;
  Option.iter Domain.join healer;
  (match fault with Stall -> f.(victim).f_uninstall () | Kill -> ());
  (* The heal lost nothing: every prefilled (even) key that no request
     wrote is on its owner, and on no other live shard.  Only the
     supervised runs heal; a containment-only kill strands its slot by
     design. *)
  let untouched = ref 0 and present = ref 0 and dup = ref 0
  and misplaced = ref 0 in
  if supervised then
    for k = 0 to key_range - 1 do
      if k land 1 = 0 && not (Atomic.get written.(k)) then begin
        incr untouched;
        let holders =
          List.filter
            (fun i -> (not !(f.(i).f_killed)) && f.(i).f_backend.find k <> None)
            (List.init shards Fun.id)
        in
        match holders with
        | [] -> ()
        | [ i ] -> if i = Router.route router k then incr present else incr misplaced
        | _ -> incr dup
      end
    done;
  let good = Array.map Atomic.get buckets in
  let fb = (Atomic.get fault_ns - start) / bucket_ns in
  (* Pre-fault baseline: the second half of the pre-fault buckets.  The
     first ~100ms of an open-loop run is cold start (domain spawn,
     allocator warmup) during which arrival-anchored deadlines expire in
     bursts; folding that into the baseline would flatter recovery. *)
  let pre_lo = max 1 (fb / 2) and pre_hi = fb - 1 in
  let pre =
    if pre_hi < pre_lo then 0.
    else begin
      let s = ref 0 in
      for b = pre_lo to pre_hi do s := !s + good.(b) done;
      float_of_int !s /. float_of_int (pre_hi - pre_lo + 1)
    end
  in
  let last_full = min (nb - 1) (Array.length good - 1) in
  let recovered = ref (-1) in
  for b = last_full downto fb + 1 do
    if float_of_int good.(b) >= 0.8 *. pre then recovered := b
  done;
  let ttr_ms =
    if !recovered < 0 || pre <= 0. then -1
    else
      ((!recovered + 1) * bms)
      - ((Atomic.get fault_ns - start) / 1_000_000)
  in
  let tail =
    let lo = max (fb + 1) (last_full - 4) in
    let s = ref 0 and n = ref 0 in
    for b = lo to last_full do s := !s + good.(b); incr n done;
    if !n = 0 || pre <= 0. then 0.
    else float_of_int !s /. float_of_int !n /. pre
  in
  let sup_stats = Option.map Supervisor.stats sup in
  Option.iter
    (fun sup ->
      List.iter (fun l -> Tables.note "  supervisor: %s" l)
        (Supervisor.journal sup))
    sup;
  {
    o_pre = pre;
    o_ttr_ms = ttr_ms;
    o_tail = tail;
    o_stale_served = Atomic.get stale_served;
    o_stale_router = Router.stale_reads router;
    o_served = r.Runner.o_served;
    o_failed = r.Runner.o_failed;
    o_heals =
      (match sup_stats with
      | Some s -> s.Supervisor.heals_done
      | None -> 0);
    o_promotions = Router.promotions router;
    o_aborts = Router.aborts router;
    o_buckets = good;
    o_fault_bucket = fb;
    o_moved =
      (match sup_stats with
      | Some s -> s.Supervisor.keys_moved
      | None -> 0);
    o_untouched = !untouched;
    o_present = !present;
    o_dup = !dup;
    o_misplaced = !misplaced;
  }

let run () =
  Tables.section
    "EXP-25  Self-healing shards: time-to-recovery + staleness contract";
  let clock = Clock.real () in
  Tables.row [ 7; 12; 10; 8; 8; 7; 7; 7; 7 ]
    [
      "fault"; "config"; "pre/bkt"; "ttr_ms"; "tail"; "heals"; "promo";
      "stale"; "aborts";
    ];
  let outs = Hashtbl.create 8 in
  List.iter
    (fun supervised ->
      List.iter
        (fun fault ->
          let o = run_one ~clock ~fault ~supervised in
          Hashtbl.replace outs (fault_name fault, supervised) o;
          let config = if supervised then "supervised" else "containment" in
          Tables.row [ 7; 12; 10; 8; 8; 7; 7; 7; 7 ]
            [
              fault_name fault;
              config;
              Printf.sprintf "%.1f" o.o_pre;
              (if o.o_ttr_ms < 0 then "never" else string_of_int o.o_ttr_ms);
              Printf.sprintf "%.2f" o.o_tail;
              string_of_int o.o_heals;
              string_of_int o.o_promotions;
              string_of_int o.o_stale_served;
              string_of_int o.o_aborts;
            ];
          if supervised then
            Tables.note
              "  heals moved %d keys; %d of %d untouched prefill keys present, \
               %d duplicated, %d misplaced"
              o.o_moved o.o_present o.o_untouched o.o_dup o.o_misplaced;
          Bench_json.emit_part ~exp:"exp25" ~part:"recovery"
            Bench_json.[
              ("fault", S (fault_name fault));
              ("config", S config);
              ("pre_goodput_per_bucket", F o.o_pre);
              ("ttr_ms", I o.o_ttr_ms);
              ("tail_goodput_ratio", F o.o_tail);
              ("heals_done", I o.o_heals);
              ("promotions", I o.o_promotions);
              ("migration_aborts", I o.o_aborts);
              ("stale_served", I o.o_stale_served);
              ("stale_router", I o.o_stale_router);
              ("stale_fraction",
               F
                 (if o.o_served = 0 then 0.
                  else float_of_int o.o_stale_served /. float_of_int o.o_served));
              ("served", I o.o_served);
              ("failed", I o.o_failed);
              ("keys_moved", I o.o_moved);
              ("untouched", I o.o_untouched);
              ("untouched_present", I o.o_present);
              ("duplicated", I o.o_dup);
              ("misplaced", I o.o_misplaced);
              ("bucket_ms", I (bucket_ms ()));
              ("fault_bucket", I o.o_fault_bucket);
            ];
          Array.iteri
            (fun b g ->
              Bench_json.emit_part ~exp:"exp25" ~part:"timeline"
                Bench_json.[
                  ("fault", S (fault_name fault));
                  ("config", S config);
                  ("bucket", I b);
                  ("t_ms", I (b * bucket_ms ()));
                  ("good", I g);
                ])
            o.o_buckets)
        [ Kill; Stall ])
    [ true; false ];
  let failures = ref [] in
  let need cond msg = if not cond then failures := msg :: !failures in
  (* The staleness oracle holds even in quick mode: it is an invariant,
     not a measurement. *)
  Hashtbl.iter
    (fun (fault, supervised) o ->
      need
        (o.o_stale_served = o.o_stale_router)
        (Printf.sprintf
           "%s/%s: %d stale outcomes at callers vs %d replica reads — a \
            replica answer was laundered into a fresh Served"
           fault
           (if supervised then "supervised" else "containment")
           o.o_stale_served o.o_stale_router);
      (* So does the data check: a heal moves every key of the slot. *)
      if supervised then
        need
          (o.o_present = o.o_untouched && o.o_dup = 0 && o.o_misplaced = 0)
          (Printf.sprintf
             "%s/supervised: %d of %d untouched prefill keys present, %d \
              duplicated, %d misplaced — the heal lost data"
             fault o.o_present o.o_untouched o.o_dup o.o_misplaced))
    outs;
  if not !Bench_json.quick then begin
    let o fault supervised = Hashtbl.find outs (fault, supervised) in
    let ks = o "kill" true and ss = o "stall" true in
    let ku = o "kill" false in
    need (ks.o_promotions >= 1) "kill/supervised: no replica promotion completed";
    need (ks.o_ttr_ms >= 0) "kill/supervised: goodput never recovered";
    need
      (ks.o_tail >= 0.8)
      (Printf.sprintf "kill/supervised: tail goodput %.2f < 0.8x pre-fault"
         ks.o_tail);
    need (ks.o_stale_served > 0)
      "kill/supervised: replica failover never served (no stale reads)";
    need (ss.o_heals >= 1) "stall/supervised: no heal completed";
    need (ss.o_ttr_ms >= 0) "stall/supervised: goodput never recovered";
    need
      (ss.o_tail >= 0.8)
      (Printf.sprintf "stall/supervised: tail goodput %.2f < 0.8x pre-fault"
         ss.o_tail);
    need
      (ku.o_tail < ks.o_tail)
      (Printf.sprintf
         "contrast lost: containment-only kill tail %.2f >= supervised %.2f"
         ku.o_tail ks.o_tail);
    Tables.note
      "contrast: kill tail goodput ratio %.2f supervised vs %.2f \
       containment-only (TTR %s ms vs %s)"
      ks.o_tail ku.o_tail
      (if ks.o_ttr_ms < 0 then "never" else string_of_int ks.o_ttr_ms)
      (if ku.o_ttr_ms < 0 then "never" else string_of_int ku.o_ttr_ms)
  end;
  (match !failures with
  | [] ->
      Tables.note
        "PASS: the supervisor restores >= 80%% of pre-fault goodput on its";
      Tables.note
        "own, promotion revives the dead shard's keyspace, and every";
      Tables.note "replica-served read is stale-tagged; no heal loses a key."
  | fs ->
      List.iter (fun f -> Tables.note "FAIL: %s" f) fs;
      Tables.note "acceptance criteria NOT met (see rows above)");
  !failures = []
