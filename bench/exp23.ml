(* EXP-23: sharded dictionary service — capacity scaling and per-shard
   failure containment (DESIGN.md §13).

   lib/shard routes every key through a seeded consistent-hash ring to
   one of N dictionary shards, each behind its own lib/svc pipeline.
   The claims under test:

   Part A (capacity scaling): N shards of the FR linked list over a
   partitioned keyspace.  On this single-core machine extra shards buy
   nothing from parallelism; they win because each shard holds ~1/N of
   the resident keys and the list's search cost is O(n) — the sharded
   service does algorithmically less work per request.  Saturated
   open-loop capacity is measured at 1, 2 and 4 shards.  PASS (full
   runs): capacity(4 shards) >= 2x capacity(1 shard).

   Part B (blast radius): 4 shards, each over its OWN fault-injecting
   memory (one Fault_mem functor instantiation per shard), so a fault
   plan targets exactly one shard's keyspace.  Scenarios: baseline (no
   fault), stall (every shared access of shard 0's memory burns pause
   rounds), hotspot (90% of traffic walks fresh ascending keys owned by
   shard 0, so its list balloons while the others stay put).  Each
   scenario runs "contained" (per-shard breaker with full fast-fail
   while open, arrival-anchored deadlines) and "unprotected" (bare
   pipeline).  Goodput is per shard: completions within 20ms of
   arrival, classified by owning shard.  PASS (full runs): with
   containment on, the victim's breaker opens, and the healthy shards
   keep >= 90% of their baseline goodput (stall; for the hotspot, whose
   arrival mix is itself the attack, >= 90% of the baseline
   served-within-standard ratio).  The unprotected rows are the
   contrast: one stalled shard drags every keyspace down.

   Part C (rebalance under load): 3 shards; a third of the way into an
   open-loop window, slot 0 is handed to shard 1 while workers keep
   issuing routed operations (the rebalance walks the keys the source
   list holds with its successor query, [find_ge]).  Afterwards the conservation
   oracle sweeps the key range: every present key lives in exactly one
   shard's backend, and that shard is the router's current owner —
   nothing duplicated, nothing stranded, nothing silently dropped.
   PASS: keys moved > 0, zero Failed outcomes, oracle holds. *)

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
module AI = Lf_list.Fr_list.Atomic_int

let workers = 2
let deadline_std_ms = 20 (* the goodput standard, as in EXP-20 *)

let req_of_op = function
  | Opgen.Insert k -> Svc.Insert (k, k)
  | Opgen.Delete k -> Svc.Delete k
  | Opgen.Find k -> Svc.Find k

let key_of = function
  | Opgen.Insert k | Opgen.Delete k | Opgen.Find k -> k

(* Partitioned prefill: shard [i] holds the even keys the ring assigns
   to it — 50% fill of exactly its own keyspace, deterministically. *)
let prefill_partition ~key_range ~ring ~shard insert =
  for k = 0 to key_range - 1 do
    if k land 1 = 0 && Hash_ring.shard_of ring k = shard then ignore (insert k)
  done

let verdict_of = function
  | Svc.Served ok | Svc.Served_stale (ok, _) -> `Served ok
  | Svc.Rejected _ -> `Rejected
  | Svc.Failed _ -> `Failed

(* ------------------------------------------------------------------ *)
(* Part A: capacity scaling with shard count.                          *)

let a_key_range = 16384
let a_mix = { Opgen.insert_pct = 20; delete_pct = 20 }
let a_window () = if !Bench_json.quick then 0.12 else 0.3
let a_shard_counts = [ 1; 2; 4 ]

let mk_plain_backend ~ring ~key_range i : Router.backend =
  let t = AI.create () in
  prefill_partition ~key_range ~ring ~shard:i (fun k -> AI.insert t k k);
  {
    Router.insert = (fun k v -> AI.insert t k v);
    delete = AI.delete t;
    find = AI.find t;
    batched = None;
  }

let part_a ~clock =
  Tables.subsection
    "Part A: saturated capacity vs shard count (partitioned keyspace)";
  Tables.row [ 7; 9; 9; 9; 12 ]
    [ "shards"; "offered"; "handled"; "served"; "capacity/s" ];
  let caps =
    List.map
      (fun shards ->
        let ring = Hash_ring.create ~seed:7 ~shards () in
        let router =
          Router.create ~ring
            ~svc_config:(fun _ -> Svc.config ~clock ())
            (mk_plain_backend ~ring ~key_range:a_key_range)
        in
        let serve ~arrival_ns:_ ~queue_depth op =
          verdict_of (Router.call router ~queue_depth (req_of_op op))
        in
        let r =
          Runner.run_open_loop ~workers ~rate:400_000 ~window_s:(a_window ())
            ~key_range:a_key_range ~mix:a_mix ~seed:(3 + shards) ~serve ()
        in
        let cap = r.Runner.o_goodput in
        Tables.row [ 7; 9; 9; 9; 12 ]
          [
            string_of_int shards;
            string_of_int r.o_offered;
            string_of_int r.o_handled;
            string_of_int r.o_served;
            Printf.sprintf "%.0f" cap;
          ];
        Bench_json.emit_part ~exp:"exp23" ~part:"scaling"
          Bench_json.[
            ("impl", S "fr-list");
            ("shards", I shards);
            ("workers", I workers);
            ("offered", I r.o_offered);
            ("handled", I r.o_handled);
            ("served", I r.o_served);
            ("capacity_req_s", F cap);
          ];
        (shards, cap))
      a_shard_counts
  in
  let failures = ref [] in
  if not !Bench_json.quick then begin
    let cap n = List.assoc n caps in
    if cap 4 < 2. *. cap 1 then
      failures :=
        Printf.sprintf "scaling: capacity at 4 shards %.0f < 2x 1 shard %.0f"
          (cap 4) (cap 1)
        :: !failures
  end;
  (caps, !failures)

(* ------------------------------------------------------------------ *)
(* Part B: blast-radius containment.                                   *)

let b_shards = 4
let b_key_range = 4096
let b_rate = 15_000
let b_mix = { Opgen.insert_pct = 60; delete_pct = 10 }
let b_window () = if !Bench_json.quick then 0.12 else 0.6
let victim = 0

(* Per-shard fault seam: one Fault_mem instantiation per shard, so the
   installed plan fires only on that shard's shared-memory accesses.
   Hints are off so the hotspot's ascending fresh keys cannot ride a
   predecessor cache — every operation pays the victim's full O(n). *)
type faulty = {
  f_backend : Router.backend;
  f_install : Fault.plan -> unit;
  f_uninstall : unit -> unit;
}

let mk_faulty ~ring ~key_range i =
  let module FM = Lf_fault.Fault_mem.Make (Lf_kernel.Atomic_mem) in
  let module L = Lf_list.Fr_list.Make (K) (FM) in
  let t = L.create_with ~use_hints:false ~use_flags:true () in
  prefill_partition ~key_range ~ring ~shard:i (fun k -> L.insert t k k);
  {
    f_backend =
      {
        Router.insert = (fun k v -> L.insert t k v);
        delete = L.delete t;
        find = L.find t;
        batched = None;
      };
    f_install = FM.install;
    f_uninstall = (fun () -> FM.uninstall ());
  }

(* Every shared access of the victim's memory burns pause rounds: a sick
   replica, not a sick protocol — C&S outcomes are untouched. *)
let stall_plan =
  Fault.make_plan ~seed:41
    [ { Fault.point = FP.Any; action = Stall 2; mode = Always; lane = None } ]

(* Fresh ascending keys owned by the victim, outside the resident
   range: each hot operation lands on the victim and traverses its
   whole (growing) list. *)
let hot_keys ring =
  let n = 50_000 in
  let out = Array.make n 0 in
  let i = ref 0 and k = ref b_key_range in
  while !i < n do
    if Hash_ring.shard_of ring !k = victim then begin
      out.(!i) <- !k;
      incr i
    end;
    incr k
  done;
  out

type scenario = Baseline | Stall | Hotspot

let scenario_name = function
  | Baseline -> "baseline"
  | Stall -> "stall"
  | Hotspot -> "hotspot"

type b_out = {
  bo_report : Runner.open_loop_report;
  bo_good : int array; (* per shard, within the 20ms standard *)
  bo_stats : Svc.stats array;
}

let healthy_good o =
  let t = ref 0 in
  Array.iteri (fun s g -> if s <> victim then t := !t + g) o.bo_good;
  !t

let healthy_handled o =
  let t = ref 0 in
  Array.iteri
    (fun s (c : Runner.class_counts) -> if s <> victim then t := !t + c.cc_handled)
    o.bo_report.Runner.o_by_class;
  !t

let run_b ~clock ~contained ~scenario =
  let ring = Hash_ring.create ~seed:5 ~shards:b_shards () in
  let f = Array.init b_shards (mk_faulty ~ring ~key_range:b_key_range) in
  let ms = Clock.ms clock in
  let svc_config _ =
    if contained then
      Svc.config ~clock
        ~breaker:
          (Some
             (Breaker.config ~window:(ms 200) ~min_calls:10 ~failure_pct:40
                ~latency_threshold:(ms 1 / 64) ~open_for:(ms 100) ~probes:3 ()))
        ~read_only_when_open:false
        ()
    else Svc.config ~clock ()
  in
  (* Hedging off: the failover path reads the raw backend, and in this
     experiment the raw backend IS the fault — hedges would re-pay the
     stall the breaker just contained. *)
  let router =
    Router.create ~hedge_reads:false ~ring ~svc_config (fun i ->
        f.(i).f_backend)
  in
  (match scenario with Stall -> f.(victim).f_install stall_plan | _ -> ());
  let keygen =
    match scenario with
    | Hotspot ->
        Keygen.mixture ~pct:90
          (Keygen.cycle (hot_keys ring))
          (Keygen.uniform b_key_range)
    | _ -> Keygen.uniform b_key_range
  in
  let std = Clock.ms clock deadline_std_ms in
  let good = Array.init b_shards (fun _ -> Atomic.make 0) in
  let serve ~arrival_ns ~queue_depth op =
    let s = Hash_ring.shard_of ring (key_of op) in
    let dl =
      if contained then Deadline.at (arrival_ns + std) else Deadline.none
    in
    match Router.call router ~deadline:dl ~queue_depth (req_of_op op) with
    | Svc.Served ok | Svc.Served_stale (ok, _) ->
        if Clock.now clock - arrival_ns <= std then Atomic.incr good.(s);
        `Served ok
    | Svc.Rejected _ -> `Rejected
    | Svc.Failed _ -> `Failed
  in
  let r =
    Runner.run_open_loop ~workers ~keygen ~classes:b_shards
      ~class_of:(fun op -> Hash_ring.shard_of ring (key_of op))
      ~rate:b_rate ~window_s:(b_window ()) ~key_range:b_key_range ~mix:b_mix
      ~seed:33 ~serve ()
  in
  f.(victim).f_uninstall ();
  {
    bo_report = r;
    bo_good = Array.map Atomic.get good;
    bo_stats = Router.stats router;
  }

let part_b ~clock =
  Tables.subsection
    "Part B: blast radius — per-shard goodput under shard-targeted faults";
  Tables.row [ 9; 12; 9; 9; 9; 9; 14 ]
    [
      "scenario"; "config"; "v.good"; "h.good"; "h.hand"; "leftover"; "victim brk";
    ];
  let outs = Hashtbl.create 8 in
  List.iter
    (fun contained ->
      List.iter
        (fun scenario ->
          let o = run_b ~clock ~contained ~scenario in
          Hashtbl.replace outs (scenario_name scenario, contained) o;
          let vb = o.bo_stats.(victim) in
          let config = if contained then "contained" else "unprotected" in
          Tables.row [ 9; 12; 9; 9; 9; 9; 14 ]
            [
              scenario_name scenario;
              config;
              string_of_int o.bo_good.(victim);
              string_of_int (healthy_good o);
              string_of_int (healthy_handled o);
              string_of_int o.bo_report.Runner.o_leftover;
              Option.value vb.breaker ~default:"none";
            ];
          Array.iteri
            (fun s (c : Runner.class_counts) ->
              let st = o.bo_stats.(s) in
              Bench_json.emit_part ~exp:"exp23" ~part:"containment"
                Bench_json.[
                  ("scenario", S (scenario_name scenario));
                  ("config", S config);
                  ("shard", I s);
                  ("victim", S (string_of_bool (s = victim)));
                  ("handled", I c.cc_handled);
                  ("served", I c.cc_served);
                  ("rejected", I c.cc_rejected);
                  ("failed", I c.cc_failed);
                  ("good", I o.bo_good.(s));
                  ("breaker", S (Option.value st.breaker ~default:"none"));
                  ("leftover", I o.bo_report.Runner.o_leftover);
                ])
            o.bo_report.Runner.o_by_class)
        [ Baseline; Stall; Hotspot ])
    [ true; false ];
  let failures = ref [] in
  let need cond msg = if not cond then failures := ("containment: " ^ msg) :: !failures in
  if not !Bench_json.quick then begin
    let o name contained = Hashtbl.find outs (name, contained) in
    let base = o "baseline" true in
    let stall = o "stall" true in
    let hot = o "hotspot" true in
    let opened o =
      List.exists (fun (_, s) -> s = "open") o.bo_stats.(victim).transitions
    in
    need (opened stall) "stall: victim breaker never opened";
    need (opened hot) "hotspot: victim breaker never opened";
    (* Stall: same arrival pattern as baseline, so healthy goodput is
       directly comparable. *)
    let hg_base = float_of_int (healthy_good base) in
    let hg_stall = float_of_int (healthy_good stall) in
    need
      (hg_stall >= 0.9 *. hg_base)
      (Printf.sprintf "stall: healthy goodput %.0f < 0.9x baseline %.0f"
         hg_stall hg_base);
    (* Hotspot: the attack IS the arrival mix (healthy shards see fewer
       arrivals), so compare the served-within-standard ratio. *)
    let ratio o =
      let h = healthy_handled o in
      if h = 0 then 0. else float_of_int (healthy_good o) /. float_of_int h
    in
    need (healthy_handled hot > 0) "hotspot: healthy shards saw no traffic";
    need
      (ratio hot >= 0.9 *. ratio base)
      (Printf.sprintf "hotspot: healthy good/handled %.3f < 0.9x baseline %.3f"
         (ratio hot) (ratio base));
    let v_rejected (st : Svc.stats) =
      List.fold_left (fun a (_, n) -> a + n) 0 st.rejected
    in
    need
      (v_rejected stall.bo_stats.(victim) > 0)
      "stall: victim rejected nothing (breaker never fast-failed)";
    (* The contrast rows: the unprotected stall must actually show the
       damage containment prevents, else the grid proves nothing. *)
    let u_stall = o "stall" false in
    Tables.note
      "contrast: unprotected stall healthy goodput %d vs contained %d \
       (baseline %d)"
      (healthy_good u_stall) (healthy_good stall) (healthy_good base)
  end;
  !failures

(* ------------------------------------------------------------------ *)
(* Part C: rebalance handoff under load + conservation oracle.         *)

let c_shards = 3
let c_key_range = 1024
let c_window () = if !Bench_json.quick then 0.12 else 0.4

let part_c ~clock =
  Tables.subsection "Part C: slot handoff under load, conservation oracle";
  let ring = Hash_ring.create ~seed:9 ~shards:c_shards () in
  let lists = Array.init c_shards (fun _ -> AI.create ()) in
  Array.iteri
    (fun i t ->
      prefill_partition ~key_range:c_key_range ~ring ~shard:i (fun k ->
          AI.insert t k k))
    lists;
  let backend i : Router.backend =
    let t = lists.(i) in
    {
      Router.insert = (fun k v -> AI.insert t k v);
      delete = AI.delete t;
      find = AI.find t;
      batched = None;
    }
  in
  let router =
    Router.create ~ring
      ~next_key:(fun i k -> Option.map fst (AI.find_ge lists.(i) k))
      ~svc_config:(fun _ -> Svc.config ~clock ())
      backend
  in
  let w = c_window () in
  let moved = ref (-1) in
  let mover =
    Domain.spawn (fun () ->
        Unix.sleepf (w /. 3.);
        moved := Router.rebalance router ~slot:0 ~to_:1)
  in
  let serve ~arrival_ns:_ ~queue_depth op =
    verdict_of (Router.call router ~queue_depth (req_of_op op))
  in
  let r =
    Runner.run_open_loop ~workers ~rate:20_000 ~window_s:w
      ~key_range:c_key_range ~mix:a_mix ~seed:51 ~serve ()
  in
  Domain.join mover;
  (* Conservation: every present key lives in exactly one backend, and
     that backend is the router's current owner for the key. *)
  let present = ref 0 and dup = ref 0 and misplaced = ref 0 in
  for k = 0 to c_key_range - 1 do
    let where =
      List.filter (fun i -> AI.mem lists.(i) k) (List.init c_shards Fun.id)
    in
    match where with
    | [] -> ()
    | [ i ] ->
        incr present;
        if i <> Router.route router k then incr misplaced
    | _ -> incr dup
  done;
  let conserved = !dup = 0 && !misplaced = 0 in
  Tables.note
    "moved %d keys (slot 0 -> shard 1) mid-window; offered %d served %d \
     failed %d; %d keys present, %d duplicated, %d misplaced"
    !moved r.o_offered r.o_served r.o_failed !present !dup !misplaced;
  List.iter (fun l -> Tables.note "journal: %s" l) (Router.journal ());
  Bench_json.emit_part ~exp:"exp23" ~part:"rebalance"
    Bench_json.[
      ("shards", I c_shards);
      ("moved", I !moved);
      ("offered", I r.o_offered);
      ("served", I r.o_served);
      ("rejected", I r.o_rejected);
      ("failed", I r.o_failed);
      ("present", I !present);
      ("duplicated", I !dup);
      ("misplaced", I !misplaced);
      ("conserved", S (string_of_bool conserved));
    ];
  let failures = ref [] in
  let need cond msg = if not cond then failures := ("rebalance: " ^ msg) :: !failures in
  need (!moved > 0) "no keys moved";
  need (r.o_failed = 0)
    (Printf.sprintf "%d Failed outcomes during the handoff" r.o_failed);
  need conserved
    (Printf.sprintf "conservation violated: %d duplicated, %d misplaced" !dup
       !misplaced);
  !failures

let run () =
  Tables.section
    "EXP-23  Sharded service: capacity scaling + per-shard containment";
  let clock = Clock.real () in
  let _caps, fa = part_a ~clock in
  let fb = part_b ~clock in
  let fc = part_c ~clock in
  let failures = fa @ fb @ fc in
  (match failures with
  | [] ->
      Tables.note
        "PASS: capacity scales with shard count, a shard-targeted fault";
      Tables.note
        "degrades only its own keyspace, and the handoff conserves keys."
  | fs ->
      List.iter (fun f -> Tables.note "FAIL: %s" f) fs;
      Tables.note "acceptance criteria NOT met (see rows above)");
  failures = []
