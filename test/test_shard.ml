(* The shard layer (lib/shard, DESIGN.md §13): ring determinism and
   reassignment, routing to exactly the owning shard, scatter-gather
   partial-failure reporting (per-key outcomes, never a collapsed error
   or a silent drop), hedged/failover reads off a tripped or killed
   shard, rebalance conservation (every key owned by exactly one shard,
   before and after a handoff), chaos through the router with a
   shard-targeted fault plan, and per-key linearizability across a
   handoff performed under concurrent load. *)

module Svc = Lf_svc.Svc
module Clock = Lf_svc.Clock
module Breaker = Lf_svc.Breaker
module Hash_ring = Lf_shard.Hash_ring
module Router = Lf_shard.Router
module Health = Lf_shard.Health
module Replica = Lf_shard.Replica
module Supervisor = Lf_shard.Supervisor
module Fault = Lf_fault.Fault
module FP = Lf_kernel.Fault_point
module History = Lf_lin.History

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let outcome =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Svc.outcome_to_string o))
    ( = )

(* --- The ring: pure, deterministic, reassignable --------------------- *)

let test_ring_deterministic =
  Support.qcheck ~count:300 "ring: slot_of pure in (key, shards, seed)"
    QCheck2.Gen.(triple (1 -- 8) (0 -- 1000) (0 -- 1_000_000))
    (fun (shards, seed, key) ->
      let r1 = Hash_ring.create ~seed ~shards () in
      let r2 = Hash_ring.create ~seed ~shards () in
      let s = Hash_ring.slot_of r1 key in
      s = Hash_ring.slot_of r2 key
      && s >= 0 && s < shards
      && Hash_ring.shard_of r1 key = Hash_ring.owner r1 s)

let test_ring_reassign =
  Support.qcheck ~count:200 "ring: reassign moves one slot, nothing else"
    QCheck2.Gen.(
      quad (2 -- 6) (0 -- 1000) (0 -- 5) (pair (0 -- 5) (0 -- 100)))
    (fun (shards, seed, slot0, (to0, key)) ->
      let slot = slot0 mod shards and to_ = to0 mod shards in
      let r = Hash_ring.create ~seed ~shards () in
      let r' = Hash_ring.reassign r ~slot ~to_ in
      (* The argument ring is unchanged; slot ownership moved; slot_of
         (hashing) is untouched by assignment. *)
      Hash_ring.owner r slot = slot
      && Hash_ring.owner r' slot = to_
      && Hash_ring.slot_of r' key = Hash_ring.slot_of r key
      && Array.to_list (Hash_ring.assignment r')
         |> List.mapi (fun i o -> i = slot || o = i)
         |> List.for_all Fun.id)

(* [slot_of] looks a position up in a table indexed by its top bits;
   it must agree with a binary search over the points for 1, 4 and 16
   shards: at keys from the whole int range, the extremes and their
   neighbours included, and at positions on, just below and just above
   every point, at the starts of the buckets holding points (for the
   table sizes of all three rings) and at the ends of [0, max_int]. *)
let ring_shards = [ 1; 4; 16 ]
let edge_keys = [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

let test_ring_table_keys =
  Support.qcheck ~count:200 "ring: table lookup = binary search at keys"
    QCheck2.Gen.(pair (0 -- 1000) (list_size (return 64) int))
    (fun (seed, keys) ->
      List.for_all
        (fun shards ->
          let r = Hash_ring.create ~seed ~shards () in
          List.for_all
            (fun k ->
              Hash_ring.slot_of r k
              = Hash_ring.Debug.slot_at_search r (Hash_ring.Debug.position r k))
            (edge_keys @ keys))
        ring_shards)

let test_ring_table_positions =
  Support.qcheck ~count:30 "ring: table lookup = binary search at positions"
    QCheck2.Gen.(pair (0 -- 1000) (list_size (return 64) (0 -- max_int)))
    (fun (seed, positions) ->
      List.for_all
        (fun shards ->
          let r = Hash_ring.create ~seed ~shards () in
          let near p =
            [ p - 1; p; p + 1 ]
            @ List.concat_map
                (fun s -> [ (p lsr s) lsl s; ((p lsr s) lsl s) - 1 ])
                [ 50; 51; 52; 53; 54; 55; 56 ]
          in
          List.for_all
            (fun h ->
              h < 0
              || Hash_ring.Debug.slot_at r h
                 = Hash_ring.Debug.slot_at_search r h)
            ([ 0; 1; max_int - 1; max_int ]
            @ List.concat_map near (Array.to_list (Hash_ring.Debug.points r))
            @ positions))
        ring_shards)

(* --- Table-backed shards for router tests ---------------------------- *)

type tb = {
  h : (int, int) Hashtbl.t;
  hits : int ref;
  killed : bool ref;  (* reads and writes fail *)
  w_killed : bool ref;  (* writes fail, reads still served *)
}

let table_backend () =
  let tb =
    { h = Hashtbl.create 32; hits = ref 0; killed = ref false;
      w_killed = ref false }
  in
  let guard ~write () =
    incr tb.hits;
    if !(tb.killed) || (write && !(tb.w_killed)) then failwith "backend down"
  in
  let b =
    {
      Router.insert =
        (fun k v ->
          guard ~write:true ();
          if Hashtbl.mem tb.h k then false else (Hashtbl.replace tb.h k v; true));
      delete =
        (fun k ->
          guard ~write:true ();
          if Hashtbl.mem tb.h k then (Hashtbl.remove tb.h k; true) else false);
      find = (fun k -> guard ~write:false (); Hashtbl.find_opt tb.h k);
      batched = None;
    }
  in
  (tb, b)

let plain_router ?hedge_reads ~shards ~seed () =
  let clock, _ = Clock.manual () in
  let ring = Hash_ring.create ~seed ~shards () in
  let tbs = Array.init shards (fun _ -> table_backend ()) in
  let router =
    Router.create ?hedge_reads ~ring
      ~svc_config:(fun _ -> Svc.config ~clock ~retryable:(fun _ -> false) ())
      (fun i -> snd tbs.(i))
  in
  (router, ring, Array.map fst tbs)

let test_routing_hits_owner =
  Support.qcheck ~count:100 "router: every call lands on the owning shard only"
    QCheck2.Gen.(pair (0 -- 1000) (list_size (1 -- 40) (0 -- 200)))
    (fun (seed, keys) ->
      let router, ring, tbs = plain_router ~shards:3 ~seed () in
      List.for_all
        (fun k ->
          let before = Array.map (fun tb -> !(tb.hits)) tbs in
          ignore (Router.call router (Svc.Insert (k, k)));
          let owner = Hash_ring.shard_of ring k in
          Array.to_list tbs
          |> List.mapi (fun i tb ->
                 !(tb.hits) - before.(i) = if i = owner then 1 else 0)
          |> List.for_all Fun.id)
        keys)

(* A one-shard router answers exactly like the bare pipeline it wraps,
   which is what lets [lfdict serve --shards 1] run through the router.
   Writes fail on a recurring stretch of lines, so most scripts open the
   breaker: the comparison covers read-only serves, [Write_degraded]
   rejections and half-open probes, not only the happy path. *)
let test_one_shard_router_matches_pipeline =
  Support.qcheck ~count:200 "router: one shard answers like its pipeline"
    QCheck2.Gen.(
      list_size (1 -- 60)
        (pair bool (list_size (1 -- 5) (pair (0 -- 2) (0 -- 15)))))
    (fun script ->
      let cfg clock =
        Svc.config ~clock
          ~breaker:
            (Some
               (Breaker.config ~window:4 ~min_calls:2 ~failure_pct:50
                  ~open_for:3 ~probes:1 ()))
          ()
      in
      let req_of (op, k) =
        match op with
        | 0 -> Svc.Insert (k, k)
        | 1 -> Svc.Delete k
        | _ -> Svc.Find k
      in
      (* One tick per line; writes fail while [i mod 12] is in 4..8. *)
      let play ~advance ~(tb : tb) ~call ~call_many =
        List.concat
          (List.mapi
             (fun i (multi, ops) ->
               advance 1;
               tb.w_killed := i mod 12 >= 4 && i mod 12 <= 8;
               let reqs = List.map req_of ops in
               if multi then call_many reqs else [ call (List.hd reqs) ])
             script)
      in
      let r_clock, r_advance = Clock.manual () in
      let r_tb, r_backend = table_backend () in
      let router =
        Router.create
          ~ring:(Hash_ring.create ~seed:1 ~shards:1 ())
          ~svc_config:(fun _ -> cfg r_clock)
          (fun _ -> r_backend)
      in
      let r_out =
        play ~advance:r_advance ~tb:r_tb
          ~call:(fun r -> Router.call router r)
          ~call_many:(fun rs -> Router.call_many router rs)
      in
      let p_clock, p_advance = Clock.manual () in
      let p_tb, (b : Router.backend) = table_backend () in
      let svc =
        Svc.create (cfg p_clock)
          {
            Svc.insert = b.insert;
            delete = b.delete;
            find = (fun k -> b.find k <> None);
          }
      in
      let p_out =
        play ~advance:p_advance ~tb:p_tb
          ~call:(fun r -> Svc.call svc r)
          ~call_many:(fun rs -> Svc.call_many svc rs)
      in
      let summary (st : Svc.stats) =
        (st.calls, st.served, st.failed, st.rejected, st.mode, st.transitions)
      in
      r_out = p_out
      && summary (Router.stats router).(0) = summary (Svc.stats svc))

(* --- Scatter-gather: per-key outcomes, order and count preserved ----- *)

let test_call_many_partial_failure () =
  let router, ring, tbs = plain_router ~hedge_reads:false ~shards:3 ~seed:42 () in
  (* Prefill through the router: keys 0..19. *)
  List.iter
    (fun k ->
      Alcotest.check outcome
        (Printf.sprintf "prefill %d" k)
        (Svc.Served true)
        (Router.call router (Svc.Insert (k, k))))
    (List.init 20 Fun.id);
  (* Kill shard 1 outright; a batch spanning all shards must come back
     with one honest outcome per key, in input order. *)
  tbs.(1).killed := true;
  let reqs = List.init 20 (fun k -> Svc.Find k) @ [ Svc.Find 999 ] in
  let out = Router.call_many router reqs in
  Alcotest.(check int) "one outcome per request" (List.length reqs)
    (List.length out);
  List.iteri
    (fun i o ->
      let k = match List.nth reqs i with Svc.Find k -> k | _ -> assert false in
      let expected =
        if Hash_ring.shard_of ring k = 1 then `Failed
        else `Served (Hashtbl.mem tbs.(Hash_ring.shard_of ring k).h k)
      in
      match (expected, o) with
      | `Failed, Svc.Failed _ -> ()
      | `Served b, Svc.Served b' when b = b' -> ()
      | _ ->
          Alcotest.failf "key %d: got %s (shard %d, killed=%b)" k
            (Svc.outcome_to_string o)
            (Hash_ring.shard_of ring k)
            (Hash_ring.shard_of ring k = 1))
    out;
  (* Nothing silently dropped: every request reached some pipeline. *)
  let calls =
    Array.fold_left (fun a (st : Svc.stats) -> a + st.calls) 0
      (Router.stats router)
  in
  Alcotest.(check bool) "all requests admitted somewhere" true
    (calls >= List.length reqs)

(* --- In-flight accounting and the lean path --------------------------- *)

(* Every key a call or a line marked in flight is unmarked on every
   exit: a served call, a line whose backend raises (outcomes [Failed],
   then hedged), a line that raises out of the router (a backoff that
   raises), and a line that names one key twice.  A leak would hang a
   later rebalance's drain, so it is read directly. *)
let test_inflight_unmarked () =
  let router, _, tbs = plain_router ~shards:3 ~seed:7 () in
  ignore (Router.call router (Svc.Insert (1, 1)));
  Alcotest.(check int) "after call" 0 (Router.in_flight router);
  Array.iter (fun tb -> tb.killed := true) tbs;
  let out = Router.call_many router (List.init 8 (fun k -> Svc.Find k)) in
  Alcotest.(check bool) "raising backend: every key failed" true
    (List.for_all (function Svc.Failed _ -> true | _ -> false) out);
  Alcotest.(check int) "after a raising backend" 0 (Router.in_flight router);
  Array.iter (fun tb -> tb.killed := false) tbs;
  Alcotest.(check (list outcome)) "repeated key: one outcome each"
    [ Svc.Served true; Svc.Served false; Svc.Served true ]
    (Router.call_many router
       [ Svc.Insert (5, 5); Svc.Insert (5, 6); Svc.Find 5 ]);
  Alcotest.(check int) "after a repeated key" 0 (Router.in_flight router);
  let clock, _ = Clock.manual () in
  let ring = Hash_ring.create ~seed:7 ~shards:3 () in
  let tbs = Array.init 3 (fun _ -> table_backend ()) in
  let raising =
    Router.create ~ring
      ~svc_config:(fun _ ->
        Svc.config ~clock
          ~retry:(Some (Lf_svc.Retry.policy ~max_attempts:2 ()))
          ~backoff:(fun _ -> failwith "no sleep")
          ())
      (fun i -> snd tbs.(i))
  in
  (fst tbs.(Hash_ring.shard_of ring 3)).killed := true;
  (match Router.call_many raising (List.init 8 (fun k -> Svc.Insert (k, k))) with
  | _ -> Alcotest.fail "the raising backoff did not leave call_many"
  | exception Failure _ -> ());
  Alcotest.(check int) "after call_many raised" 0 (Router.in_flight raising);
  (match Router.call raising (Svc.Insert (3, 3)) with
  | _ -> Alcotest.fail "the raising backoff did not leave call"
  | exception Failure _ -> ());
  Alcotest.(check int) "after call raised" 0 (Router.in_flight raising)

(* Routing a key hashes it with [Splitmix.hash], which builds no stream,
   so it allocates nothing. *)
let test_slot_of_alloc () =
  let ring = Hash_ring.create ~seed:1 ~shards:4 () in
  let n = 10_000 in
  let words =
    Support.words_during (fun () ->
        for k = 1 to n do
          ignore (Sys.opaque_identity (Hash_ring.slot_of ring k))
        done)
    /. float_of_int n
  in
  if words > 1. then
    Alcotest.failf "Hash_ring.slot_of allocates %.1f words per call (bar: 1)"
      words

(* The router's own words per key: an int-keyed in-flight table, a ring
   hash that allocates nothing, no closures, no lists per line.  The
   backend answers from preallocated values, so what is measured is the
   router and the default pipeline (plus 2 words for each request). *)
let test_router_alloc () =
  let clock, _ = Clock.manual () in
  let ring = Hash_ring.create ~seed:1 ~shards:4 () in
  let found = Some 1 in
  let backend _ =
    { Router.insert = (fun _ _ -> true); delete = (fun _ -> true);
      find = (fun _ -> found); batched = None }
  in
  let router =
    Router.create ~ring ~svc_config:(fun _ -> Svc.config ~clock ()) backend
  in
  let n = 10_000 in
  let call =
    Support.words_during (fun () ->
        for k = 1 to n do
          ignore (Sys.opaque_identity (Router.call router (Svc.Find k)))
        done)
    /. float_of_int n
  in
  if call > 8. then
    Alcotest.failf "Router.call allocates %.1f words (bar: 8)" call;
  let lines =
    Array.init 1_000 (fun i -> List.init 16 (fun j -> Svc.Find ((16 * i) + j)))
  in
  let per_key =
    Support.words_during (fun () ->
        Array.iter
          (fun l -> ignore (Sys.opaque_identity (Router.call_many router l)))
          lines)
    /. float_of_int (16 * Array.length lines)
  in
  if per_key > 14. then
    Alcotest.failf "Router.call_many allocates %.1f words per key (bar: 14)"
      per_key

(* --- Hedged/failover reads ------------------------------------------- *)

(* A shard whose writes die trips its breaker; with full fast-fail
   degrade the pipeline then rejects reads too — and the router serves
   them anyway, straight off the backend, because the paper's searches
   are safe to run outside the pipeline. *)
let hedging_router ~hedge_reads =
  let clock, _ = Clock.manual () in
  let ring = Hash_ring.create ~seed:3 ~shards:2 () in
  let tbs = Array.init 2 (fun _ -> table_backend ()) in
  let cfg _ =
    Svc.config ~clock
      ~retryable:(fun _ -> false)
      ~breaker:
        (Some
           (Breaker.config ~window:1_000_000 ~min_calls:2 ~failure_pct:50
              ~open_for:1_000_000 ~probes:1 ()))
      ~read_only_when_open:false
      ()
  in
  let router =
    Router.create ~hedge_reads ~ring ~svc_config:cfg (fun i -> snd tbs.(i))
  in
  (router, ring, Array.map fst tbs)

let shard_key ?(from = 0) ring s =
  let rec go k = if Hash_ring.shard_of ring k = s then k else go (k + 1) in
  go from

let test_hedged_read_tripped_shard () =
  let router, ring, tbs = hedging_router ~hedge_reads:true in
  let k = shard_key ring 0 in
  Alcotest.check outcome "prefill" (Svc.Served true)
    (Router.call router (Svc.Insert (k, 7)));
  tbs.(0).w_killed := true;
  (* Failed writes trip shard 0's breaker (full fast-fail mode).  The
     prefill success already counts toward min_calls, so the breaker may
     open after the very first failure — loop until it rejects. *)
  let failed_writes = ref 0 in
  let rec trip budget =
    if budget = 0 then Alcotest.fail "breaker never opened"
    else
      match Router.call router (Svc.Insert (k, 8)) with
      | Svc.Failed _ ->
          incr failed_writes;
          trip (budget - 1)
      | Svc.Rejected Svc.Breaker_open -> ()
      | o -> Alcotest.failf "unexpected write outcome %s" (Svc.outcome_to_string o)
  in
  trip 10;
  Alcotest.(check bool) "at least one write failed" true (!failed_writes >= 1);
  Alcotest.(check (option string)) "breaker open" (Some "open")
    (Router.stats router).(0).breaker;
  (* A write stays rejected — only reads fail over. *)
  (match Router.call router (Svc.Insert (k, 9)) with
  | Svc.Rejected Svc.Breaker_open -> ()
  | o -> Alcotest.failf "write not rejected: %s" (Svc.outcome_to_string o));
  (* The read is rejected by the pipeline, then served by the hedge. *)
  Alcotest.check outcome "read hedged around the open breaker"
    (Svc.Served true)
    (Router.call router (Svc.Find k));
  Alcotest.check outcome "missing key hedges to an honest false"
    (Svc.Served false)
    (Router.call router (Svc.Find (shard_key ~from:1000 ring 0)));
  Alcotest.(check bool) "hedge counter bumped" true
    ((Router.hedged router).(0) >= 2);
  (* Healthy shard untouched throughout. *)
  Alcotest.(check (option string)) "other shard closed" (Some "closed")
    (Router.stats router).(1).breaker

let test_hedge_off_and_dead_backend () =
  (* hedge_reads:false — the rejection is reported as-is. *)
  let router, ring, tbs = hedging_router ~hedge_reads:false in
  let k = shard_key ring 0 in
  tbs.(0).w_killed := true;
  for _ = 1 to 2 do
    ignore (Router.call router (Svc.Insert (k, 8)))
  done;
  Alcotest.check outcome "no hedge: read rejected"
    (Svc.Rejected Svc.Breaker_open)
    (Router.call router (Svc.Find k));
  (* hedge on, but the backend is dead for reads too: the hedge is best
     effort and the original Failed outcome stands. *)
  let router, ring, tbs = hedging_router ~hedge_reads:true in
  let k = shard_key ring 0 in
  tbs.(0).killed := true;
  (match Router.call router (Svc.Find k) with
  | Svc.Failed _ -> ()
  | o -> Alcotest.failf "dead backend: expected Failed, got %s"
           (Svc.outcome_to_string o))

(* --- Rebalance: conservation oracle ---------------------------------- *)

let key_range_c = 64

let test_rebalance_conservation =
  Support.qcheck ~count:150 "rebalance: every key owned by exactly one shard"
    QCheck2.Gen.(
      quad (0 -- 1000) (0 -- 2) (0 -- 2)
        (list_size (0 -- 80) (pair (int_bound 2) (int_bound (key_range_c - 1)))))
    (fun (seed, slot, to_, script) ->
      let router, ring, tbs = plain_router ~shards:3 ~seed () in
      (* Random mutations through the router. *)
      List.iter
        (fun (tag, k) ->
          ignore
            (Router.call router
               (match tag with
               | 0 -> Svc.Insert (k, k)
               | 1 -> Svc.Delete k
               | _ -> Svc.Find k)))
        script;
      let present_in_slot =
        List.length
          (List.filter
             (fun k ->
               Hash_ring.slot_of ring k = slot
               && Hashtbl.mem tbs.(Hash_ring.owner ring slot).h k)
             (List.init key_range_c Fun.id))
      in
      let moved = Router.rebalance router ~slot ~to_ ~key_range:key_range_c in
      let expected_moved = if Hash_ring.owner ring slot = to_ then 0 else present_in_slot in
      (* Conservation: each key present in at most one backend, and that
         backend is the router's current owner. *)
      let conserved =
        List.for_all
          (fun k ->
            let where =
              List.filter (fun i -> Hashtbl.mem tbs.(i).h k) [ 0; 1; 2 ]
            in
            match where with
            | [] -> true
            | [ i ] -> i = Router.route router k
            | _ -> false)
          (List.init key_range_c Fun.id)
      in
      moved = expected_moved && conserved
      && Router.migrated_keys router = moved)

(* --- Chaos: a shard-targeted stall plan through the router ----------- *)

module K = Lf_kernel.Ordered.Int

type faulty = {
  f_backend : Router.backend;
  f_install : Fault.plan -> unit;
  f_uninstall : unit -> unit;
}

let mk_faulty_list ~prefill () =
  let module FM = Lf_fault.Fault_mem.Make (Lf_kernel.Atomic_mem) in
  let module L = Lf_list.Fr_list.Make (K) (FM) in
  let t = L.create () in
  List.iter (fun k -> ignore (L.insert t k k)) prefill;
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

let test_chaos_shard_targeted_stall () =
  let clock = Clock.real () in
  let ms = Clock.ms clock in
  let shards = 2 and key_range = 128 in
  let ring = Hash_ring.create ~seed:11 ~shards () in
  (* Lists start empty: [run_chaos] prefills to 50% through the router
     itself and counts only successful inserts, so pre-populating here
     would make that loop spin forever on duplicates. *)
  let f = Array.init shards (fun _ -> mk_faulty_list ~prefill:[] ()) in
  let cfg _ =
    Svc.config ~clock
      ~breaker:
        (Some
           (Breaker.config ~window:(ms 100) ~min_calls:3 ~failure_pct:40
              ~latency_threshold:(ms 1 / 64) ~open_for:(ms 100) ~probes:3 ()))
      ~read_only_when_open:false
      ()
  in
  let router =
    Router.create ~hedge_reads:false ~ring ~svc_config:cfg (fun i ->
        f.(i).f_backend)
  in
  (* Stall every worker-lane access of shard 0's memory: the containment
     claim is that lanes keep making progress on shard 1's keyspace and
     nobody starves past the watchdog budget.  The plan is installed
     before [run_chaos] spawns its workers (module-level fault state is
     published by [Domain.spawn]); targeting lanes 0 and 1 leaves the
     monitor's lane(-1) prefill clean, so the victim breaker only sees
     stalled traffic once the measured window starts. *)
  f.(0).f_install
    (Fault.make_plan ~seed:13
       [
         { Fault.point = FP.Any; action = Stall 8; mode = Always; lane = Some 0 };
         { Fault.point = FP.Any; action = Stall 8; mode = Always; lane = Some 1 };
       ]);
  let as_bool = function
    | Svc.Served ok -> ok
    | Svc.Served_stale (ok, _) -> ok
    | Svc.Rejected _ | Svc.Failed _ -> false
  in
  let r =
    Lf_workload.Runner.run_chaos ~name:"router+stall-shard-0" ~window_s:0.15
      ~insert:(fun k -> as_bool (Router.call router (Svc.Insert (k, k))))
      ~delete:(fun k -> as_bool (Router.call router (Svc.Delete k)))
      ~find:(fun k -> as_bool (Router.call router (Svc.Find k)))
      ~domains:2 ~key_range
      ~mix:{ Lf_workload.Opgen.insert_pct = 30; delete_pct = 30 }
      ~seed:17 ()
  in
  f.(0).f_uninstall ();
  Alcotest.(check bool) "watchdog clean: no lane starved" false
    r.Lf_workload.Runner.c_watchdog_tripped;
  Alcotest.(check (list int)) "no lane crashed" [] r.c_crashed;
  Alcotest.(check bool) "lanes made progress" true (r.c_survivor_ops > 0);
  let st = (Router.stats router).(0) in
  Alcotest.(check bool) "victim breaker opened under the stall" true
    (List.exists (fun (_, s) -> s = "open") st.transitions);
  Alcotest.(check (option string)) "healthy shard stayed closed"
    (Some "closed")
    (Router.stats router).(1).breaker

(* --- Per-key linearizability across a live handoff ------------------- *)

(* Two domains hammer a tiny key space through the router while the main
   thread hands slot 0 to the other shard.  Every Served outcome is a
   completed history entry; rejections never executed; without faults
   nothing is pending.  Linearizability decomposes per key for a
   dictionary, so each key's projected history must linearize against
   its prefill state — across the copy and the ownership flip. *)
let test_linearizable_across_rebalance () =
  let key_range = 6 and shards = 2 in
  let clock = Clock.real () in
  let ring = Hash_ring.create ~seed:21 ~shards () in
  let lists = Array.init shards (fun _ -> Lf_list.Fr_list.Atomic_int.create ()) in
  let module AI = Lf_list.Fr_list.Atomic_int in
  (* Even keys start present, on their owning shard. *)
  for k = 0 to key_range - 1 do
    if k land 1 = 0 then
      ignore (AI.insert lists.(Hash_ring.shard_of ring k) k k)
  done;
  let backend i =
    let t = lists.(i) in
    {
      Router.insert = (fun k v -> AI.insert t k v);
      delete = AI.delete t;
      find = AI.find t;
      batched = None;
    }
  in
  let router =
    Router.create ~ring ~svc_config:(fun _ -> Svc.config ~clock ()) backend
  in
  let rec_ = History.Recorder.create () in
  let worker pid =
    Domain.spawn (fun () ->
        let rng = Lf_kernel.Splitmix.create (100 + pid) in
        let entries = ref [] in
        for _ = 1 to 40 do
          let k = Lf_kernel.Splitmix.int rng key_range in
          let op, req =
            match Lf_kernel.Splitmix.int rng 3 with
            | 0 -> (History.Insert k, Svc.Insert (k, k))
            | 1 -> (History.Delete k, Svc.Delete k)
            | _ -> (History.Find k, Svc.Find k)
          in
          let inv = History.Recorder.tick rec_ in
          (match Router.call router req with
          | Svc.Served ok ->
              let ret = History.Recorder.tick rec_ in
              entries := { History.pid; op; ok; inv; ret } :: !entries
          | Svc.Served_stale (_, lag) ->
              Alcotest.failf "unexpected stale read (lag=%d): no replicas" lag
          | Svc.Rejected _ -> () (* never executed: no history entry *)
          | Svc.Failed m -> Alcotest.failf "unexpected Failed: %s" m);
          Domain.cpu_relax ()
        done;
        History.Recorder.add rec_ !entries)
  in
  let d0 = worker 0 and d1 = worker 1 in
  (* Hand slot 0 over while the workers run. *)
  Unix.sleepf 0.002;
  let moved = Router.rebalance router ~slot:0 ~to_:1 ~key_range in
  Domain.join d0;
  Domain.join d1;
  Alcotest.(check bool) "rebalance ran" true (moved >= 0);
  let hist = History.Recorder.history rec_ in
  Alcotest.(check bool) "history not empty" true (hist <> []);
  let key_of_op = function
    | History.Find k | History.Insert k | History.Delete k -> k
  in
  for k = 0 to key_range - 1 do
    let proj = List.filter (fun (e : History.entry) -> key_of_op e.op = k) hist in
    let init =
      if k land 1 = 0 then Lf_lin.Checker.IntSet.singleton k
      else Lf_lin.Checker.IntSet.empty
    in
    if not (Lf_workload.Runner.linearizable_with_pending ~init proj []) then
      Alcotest.failf "key %d: projected history not linearizable:@\n%a" k
        History.pp proj
  done;
  (* And the handoff conserved the keyspace. *)
  for k = 0 to key_range - 1 do
    let where =
      List.filter (fun i -> AI.mem lists.(i) k) (List.init shards Fun.id)
    in
    match where with
    | [] -> ()
    | [ i ] ->
        Alcotest.(check int)
          (Printf.sprintf "key %d at its owner" k)
          (Router.route router k) i
    | _ -> Alcotest.failf "key %d present on several shards" k
  done

(* --- Abort journal + resume: stuck is distinguishable from done ------- *)

let test_abort_and_resume () =
  let key_range = 64 in
  let router, ring, tbs = plain_router ~shards:3 ~seed:5 () in
  let slot = 0 in
  let from = Hash_ring.owner ring slot in
  let to_ = (from + 1) mod 3 and other = (from + 2) mod 3 in
  let keys =
    List.filter
      (fun k -> Hash_ring.slot_of ring k = slot)
      (List.init key_range Fun.id)
  in
  Alcotest.(check bool) "slot has keys to move" true (List.length keys >= 2);
  List.iter
    (fun k ->
      Alcotest.check outcome
        (Printf.sprintf "prefill %d" k)
        (Svc.Served true)
        (Router.call router (Svc.Insert (k, k))))
    keys;
  (* Destination writes dead: the first key's copy exhausts its bounded
     retries and the migration aborts. *)
  tbs.(to_).w_killed := true;
  (match Router.rebalance router ~slot ~to_ ~key_range with
  | moved -> Alcotest.failf "abort expected, migration completed (%d)" moved
  | exception Failure _ -> ());
  Alcotest.(check int) "abort counted" 1 (Router.aborts router);
  (* The terminal journal record distinguishes stuck from done. *)
  let abort_line =
    Printf.sprintf "rebalance slot=%d shard %d -> %d abort" slot from to_
  in
  Alcotest.(check bool) "abort journaled" true
    (List.exists (fun l -> contains l abort_line) (Router.journal ()));
  (match Router.migration_status router with
  | Some ms ->
      Alcotest.(check bool) "status says aborted" true ms.Router.ms_aborted;
      Alcotest.(check int) "status slot" slot ms.Router.ms_slot;
      Alcotest.(check int) "status target" to_ ms.Router.ms_to
  | None -> Alcotest.fail "aborted migration record must be kept");
  (* The kept watermark keeps routing correct: nothing moved, every key
     still routed to (and held by) the source. *)
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "key %d still routed to source" k)
        from (Router.route router k);
      Alcotest.(check bool)
        (Printf.sprintf "key %d still held by source" k)
        true
        (Hashtbl.mem tbs.(from).h k))
    keys;
  (* Only the same slot+target resumes; anything else is refused while
     the aborted record stands. *)
  (match Router.rebalance router ~slot ~to_:other ~key_range with
  | _ -> Alcotest.fail "different target must not resume"
  | exception Invalid_argument _ -> ());
  (match Router.rebalance router ~slot:1 ~to_ ~key_range with
  | _ -> Alcotest.fail "different slot must not resume"
  | exception Invalid_argument _ -> ());
  (* Heal the destination; the retry resumes from the watermark and
     completes. *)
  tbs.(to_).w_killed := false;
  let moved = Router.rebalance router ~slot ~to_ ~key_range in
  Alcotest.(check int) "resume moved every key" (List.length keys) moved;
  Alcotest.(check bool) "migration record cleared" true
    (Router.migration_status router = None);
  Alcotest.(check bool) "resume journaled" true
    (List.exists
       (fun l ->
         contains l
           (Printf.sprintf "rebalance slot=%d shard %d -> %d resume" slot from
              to_))
       (Router.journal ()));
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "key %d routed to target" k)
        to_ (Router.route router k);
      Alcotest.(check bool)
        (Printf.sprintf "key %d on exactly the target" k)
        true
        (Hashtbl.mem tbs.(to_).h k && not (Hashtbl.mem tbs.(from).h k)))
    keys

(* --- Monitor: the breaker-open anomaly fires once --------------------- *)

let test_monitor_no_double_fire () =
  let router, ring, tbs = hedging_router ~hedge_reads:false in
  let mon = Health.monitor () in
  Alcotest.(check (list int)) "nothing open yet" []
    (Health.newly_open mon router);
  let k = shard_key ring 0 in
  ignore (Router.call router (Svc.Insert (k, 1)));
  tbs.(0).w_killed := true;
  for _ = 1 to 4 do
    ignore (Router.call router (Svc.Insert (k, 2)))
  done;
  Alcotest.(check (option string)) "breaker open" (Some "open")
    (Router.stats router).(0).breaker;
  (* The KILL + immediate FLIGHTDUMP shape: two observations of the same
     opening must fire exactly one anomaly. *)
  Alcotest.(check (list int)) "first poll fires" [ 0 ]
    (Health.newly_open mon router);
  Alcotest.(check (list int)) "second poll does not" []
    (Health.newly_open mon router);
  (* A chaos KILL pre-marks its victim: the breaker trip that follows is
     attributed to the kill bundle, never re-fired. *)
  let mon2 = Health.monitor () in
  Health.mark_open mon2 0;
  Alcotest.(check (list int)) "pre-marked victim not re-fired" []
    (Health.newly_open mon2 router)

(* --- Replica: journal, budgeted apply, lag --------------------------- *)

let tbl_store () =
  let h = Hashtbl.create 16 in
  ( h,
    {
      Replica.r_insert = (fun k v -> Hashtbl.replace h k v; true);
      r_delete =
        (fun k ->
          if Hashtbl.mem h k then (Hashtbl.remove h k; true) else false);
      r_find = (fun k -> Hashtbl.find_opt h k);
    } )

let test_replica_journal_and_lag () =
  let reps = Replica.create () in
  let _h, store = tbl_store () in
  Replica.add_slot reps ~slot:2 ~on:1 ~store;
  (match Replica.add_slot reps ~slot:2 ~on:0 ~store with
  | () -> Alcotest.fail "duplicate slot accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (option int)) "host" (Some 1) (Replica.host reps ~slot:2);
  (* Unreplicated slots: record is a no-op, read answers None. *)
  Replica.record reps ~slot:7 ~now:0 (Replica.Put (1, 1));
  Alcotest.(check bool) "unreplicated read" true
    (Replica.read reps ~slot:7 ~key:1 ~now:0 = None);
  (* Recorded but unapplied entries are invisible; lag counts from the
     oldest pending entry's record tick. *)
  Replica.record reps ~slot:2 ~now:10 (Replica.Put (5, 50));
  Replica.record reps ~slot:2 ~now:12 (Replica.Del 6);
  (match Replica.read reps ~slot:2 ~key:5 ~now:14 with
  | Some (None, 4) -> ()
  | Some (v, lag) ->
      Alcotest.failf "pre-apply read: value=%s lag=%d"
        (match v with None -> "none" | Some v -> string_of_int v)
        lag
  | None -> Alcotest.fail "replicated slot read None");
  (match Replica.stats reps ~now:14 with
  | [ st ] ->
      Alcotest.(check int) "pending" 2 st.Replica.s_pending;
      Alcotest.(check int) "lag" 4 st.Replica.s_lag
  | l -> Alcotest.failf "one replicated slot expected, got %d" (List.length l));
  (* Budgeted apply drains oldest-first: the Put lands, the Del stays
     pending and the lag re-bases on it. *)
  Alcotest.(check int) "apply one" 1 (Replica.apply ~budget:1 reps);
  (match Replica.read reps ~slot:2 ~key:5 ~now:14 with
  | Some (Some 50, 2) -> ()
  | _ -> Alcotest.fail "budgeted apply wrong");
  Alcotest.(check int) "drain applies the rest" 1 (Replica.drain reps ~slot:2);
  (match Replica.read reps ~slot:2 ~key:5 ~now:20 with
  | Some (Some 50, 0) -> ()
  | _ -> Alcotest.fail "drained copy must be lag 0");
  (* Failover reads are counted (the staleness oracle); control-plane
     peeks are not. *)
  Alcotest.(check int) "reads counted" 3 (Replica.reads reps);
  Alcotest.(check (option int)) "peek sees the copy" (Some 50)
    (Replica.peek reps ~slot:2 ~key:5);
  Alcotest.(check int) "peek uncounted" 3 (Replica.reads reps);
  (match Replica.stats reps ~now:20 with
  | [ st ] ->
      Alcotest.(check int) "applied" 2 st.Replica.s_applied;
      Alcotest.(check int) "nothing pending" 0 st.Replica.s_pending
  | _ -> Alcotest.fail "stats after drain");
  Replica.remove_slot reps ~slot:2;
  Alcotest.(check bool) "retired" false (Replica.replicated reps ~slot:2)

(* --- The staleness contract at the router ----------------------------- *)

let slot_key ?(from = 0) ring slot =
  let rec go k = if Hash_ring.slot_of ring k = slot then k else go (k + 1) in
  go from

let test_replica_failover_stale_tagged () =
  let router, ring, tbs = plain_router ~shards:2 ~seed:9 () in
  let k = shard_key ring 0 in
  let slot = Hash_ring.slot_of ring k in
  let reps = Replica.create () in
  let _h, store = tbl_store () in
  Replica.add_slot reps ~slot ~on:1 ~store;
  Router.attach_replicas router reps;
  Alcotest.check outcome "write served" (Svc.Served true)
    (Router.call router (Svc.Insert (k, 41)));
  (* Replication is async: the journaled write only reaches the copy on
     apply. *)
  Alcotest.(check int) "journal applied" 1 (Replica.apply reps);
  (* The shard dies outright — reads throw, so the hedge cannot answer
     from the backend and falls back to the replica.  Every replica
     answer is stale-tagged; a fresh [Served] would be a contract
     violation. *)
  tbs.(0).killed := true;
  Alcotest.check outcome "dead shard: replica answers, stale-tagged"
    (Svc.Served_stale (true, 0))
    (Router.call router (Svc.Find k));
  Alcotest.check outcome "missing key: an honest stale false"
    (Svc.Served_stale (false, 0))
    (Router.call router (Svc.Find (slot_key ~from:(k + 1) ring slot)));
  Alcotest.(check int) "every replica answer counted" 2
    (Router.stale_reads router);
  Alcotest.(check int) "and counted at the replica too" 2 (Replica.reads reps);
  (* Writes never fail over to a replica. *)
  (match Router.call router (Svc.Insert (k, 99)) with
  | Svc.Failed _ | Svc.Rejected _ -> ()
  | o -> Alcotest.failf "write must not fail over: %s" (Svc.outcome_to_string o))

(* --- Supervisor: hysteresis, pacing, backoff -------------------------- *)

let mk_health ?(calls = fun _ -> 0) ?(rejected = fun _ -> 0) ~sick ids =
  List.map
    (fun i ->
      let bad = List.mem i sick in
      {
        Health.h_id = i;
        h_ok = not bad;
        h_breaker = (if bad then "open" else "closed");
        h_slots = 1;
        h_calls = calls i;
        h_served = calls i - rejected i;
        h_failed = 0;
        h_rejected = rejected i;
        h_retries = 0;
        h_hedged = 0;
        h_hedge_wins = 0;
      })
    ids

let test_supervisor_hysteresis_and_backoff () =
  let clock, _ = Clock.manual () in
  let cfg =
    Supervisor.config ~poll_every:1 ~sick_after:3 ~healthy_after:2
      ~backoff_base:4 ~backoff_max:8 ~clock ~key_range:16 ()
  in
  let sup = Supervisor.create cfg ~shards:2 in
  let tick ~now ~sick =
    Supervisor.tick sup ~now
      ~health:(mk_health ~sick [ 0; 1 ])
      ~assignment:[| 0; 1 |]
      ~replica_host:(fun _ -> None)
      ~pending_abort:None ~fast_burn:false
  in
  (* Hysteresis: two sick polls are not enough; the third plans exactly
     one copy evacuation onto the healthy shard. *)
  Alcotest.(check int) "poll 1 holds" 0 (List.length (tick ~now:1 ~sick:[ 0 ]));
  Alcotest.(check int) "same tick not re-polled (poll_every)" 0
    (List.length (tick ~now:1 ~sick:[ 0 ]));
  Alcotest.(check int) "poll 2 holds" 0 (List.length (tick ~now:2 ~sick:[ 0 ]));
  let a =
    match tick ~now:3 ~sick:[ 0 ] with
    | [ ({ Supervisor.a_slot = 0; a_from = 0; a_to = 1; a_via = Copy } as a) ]
      ->
        a
    | l -> Alcotest.failf "poll 3: one copy evacuation expected, got %d"
             (List.length l)
  in
  Alcotest.(check (list int)) "sick list" [ 0 ] (Supervisor.stats sup).sick;
  (* A failed heal backs the source off exponentially: base 4, then
     capped at 8. *)
  Supervisor.report sup ~now:3 a ~ok:false ~moved:0;
  Alcotest.(check int) "backing off (t=4)" 0
    (List.length (tick ~now:4 ~sick:[ 0 ]));
  Alcotest.(check int) "backing off (t=6)" 0
    (List.length (tick ~now:6 ~sick:[ 0 ]));
  (match tick ~now:7 ~sick:[ 0 ] with
  | [ a ] -> Supervisor.report sup ~now:7 a ~ok:false ~moved:0
  | l -> Alcotest.failf "backoff expiry must retry, got %d" (List.length l));
  Alcotest.(check int) "doubled backoff capped (t=14)" 0
    (List.length (tick ~now:14 ~sick:[ 0 ]));
  (match tick ~now:15 ~sick:[ 0 ] with
  | [ a ] -> Supervisor.report sup ~now:15 a ~ok:true ~moved:5
  | l -> Alcotest.failf "capped backoff expiry must retry, got %d"
           (List.length l));
  (* Success re-arms immediately and the journal carries the story. *)
  let s = Supervisor.stats sup in
  Alcotest.(check int) "heals done" 1 s.Supervisor.heals_done;
  Alcotest.(check int) "heals failed" 2 s.Supervisor.heals_failed;
  Alcotest.(check int) "keys moved" 5 s.Supervisor.keys_moved;
  let j = Supervisor.journal sup in
  Alcotest.(check bool) "sick transition journaled" true
    (List.exists (fun l -> contains l "shard 0 sick") j);
  Alcotest.(check bool) "failures journaled with backoff" true
    (List.exists (fun l -> contains l "backoff=8") j);
  (* Recovery clears the sick streak. *)
  ignore (tick ~now:16 ~sick:[]);
  Alcotest.(check (list int)) "recovered" [] (Supervisor.stats sup).sick;
  Alcotest.(check bool) "recovery journaled" true
    (List.exists (fun l -> contains l "shard 0 recovered")
       (Supervisor.journal sup))

let test_supervisor_shed_sick_and_fast_burn () =
  let clock, _ = Clock.manual () in
  let cfg =
    Supervisor.config ~poll_every:1 ~sick_after:4 ~healthy_after:1 ~clock
      ~key_range:8 ()
  in
  let sup = Supervisor.create cfg ~shards:2 in
  let tick ~now ~fast_burn h =
    Supervisor.tick sup ~now ~health:h ~assignment:[| 0; 1 |]
      ~replica_host:(fun _ -> None)
      ~pending_abort:None ~fast_burn
  in
  (* 60% of the poll's calls shed counts as sick even with the breaker
     closed. *)
  let shedding ~calls ~rejected =
    mk_health ~sick:[]
      ~calls:(fun i -> if i = 0 then calls else 0)
      ~rejected:(fun i -> if i = 0 then rejected else 0)
      [ 0; 1 ]
  in
  Alcotest.(check int) "shed poll 1 holds" 0
    (List.length (tick ~now:1 ~fast_burn:false (shedding ~calls:100 ~rejected:60)));
  (* An SLO fast burn halves sick_after (4 -> 2): the second bad poll
     acts. *)
  (match tick ~now:2 ~fast_burn:true (shedding ~calls:200 ~rejected:120) with
  | [ { Supervisor.a_from = 0; a_via = Copy; _ } ] -> ()
  | l ->
      Alcotest.failf "fast burn must act on poll 2, got %d actions"
        (List.length l))

let test_supervisor_resume_priority_and_promote_target () =
  let clock, _ = Clock.manual () in
  let cfg =
    Supervisor.config ~poll_every:1 ~sick_after:1 ~healthy_after:1 ~clock
      ~key_range:8 ()
  in
  let sup = Supervisor.create cfg ~shards:3 in
  let health = mk_health ~sick:[ 0 ] [ 0; 1; 2 ] in
  (* The router's aborted migration is resumed before anything else is
     planned; via=Promote exactly when the slot's replica lives on the
     stranded target. *)
  (match
     Supervisor.tick sup ~now:1 ~health ~assignment:[| 0; 1; 2 |]
       ~replica_host:(fun s -> if s = 0 then Some 2 else None)
       ~pending_abort:(Some (0, 0, 2)) ~fast_burn:false
   with
  | [ { Supervisor.a_slot = 0; a_from = 0; a_to = 2; a_via = Promote } ] -> ()
  | _ -> Alcotest.fail "resume onto the replica host must promote");
  (match
     Supervisor.tick sup ~now:2 ~health ~assignment:[| 0; 1; 2 |]
       ~replica_host:(fun _ -> None)
       ~pending_abort:(Some (0, 0, 1)) ~fast_burn:false
   with
  | [ { Supervisor.a_slot = 0; a_from = 0; a_to = 1; a_via = Copy } ] -> ()
  | _ -> Alcotest.fail "resume without a replica copies");
  (* Fresh planning prefers promotion when the replica host is healthy. *)
  (match
     Supervisor.tick sup ~now:3 ~health ~assignment:[| 0; 1; 2 |]
       ~replica_host:(fun s -> if s = 0 then Some 1 else None)
       ~pending_abort:None ~fast_burn:false
   with
  | [ { Supervisor.a_slot = 0; a_from = 0; a_to = 1; a_via = Promote } ] -> ()
  | _ -> Alcotest.fail "planning must prefer the replica host")

(* --- End to end: the supervisor promotes a replica off a dead shard --- *)

let test_supervisor_promotes_off_dead_shard () =
  let clock, advance = Clock.manual () in
  let shards = 2 and key_range = 32 in
  let ring = Hash_ring.create ~seed:3 ~shards () in
  let pairs = Array.init shards (fun _ -> table_backend ()) in
  let tbs = Array.map fst pairs in
  let cfg _ =
    Svc.config ~clock
      ~retryable:(fun _ -> false)
      ~breaker:
        (Some
           (Breaker.config ~window:1_000_000 ~min_calls:2 ~failure_pct:50
              ~open_for:1_000_000 ~probes:1 ()))
      ~read_only_when_open:false
      ()
  in
  let router = Router.create ~ring ~svc_config:cfg (fun i -> snd pairs.(i)) in
  let reps = Replica.create () in
  let copy, store = tbl_store () in
  Replica.add_slot reps ~slot:0 ~on:1 ~store;
  Router.attach_replicas router reps;
  let keys =
    List.filter
      (fun k -> Hash_ring.slot_of ring k = 0)
      (List.init key_range Fun.id)
  in
  List.iter
    (fun k ->
      Alcotest.check outcome
        (Printf.sprintf "prefill %d" k)
        (Svc.Served true)
        (Router.call router (Svc.Insert (k, k + 100))))
    keys;
  let sup =
    Supervisor.create
      (Supervisor.config ~poll_every:1 ~sick_after:2 ~healthy_after:1 ~clock
         ~key_range ())
      ~shards
  in
  (* A healthy poll: the replica journal applies on the supervisor's
     pace, and nothing is planned. *)
  advance 1;
  Alcotest.(check int) "healthy tick heals nothing" 0
    (Supervisor.run_tick sup router);
  Alcotest.(check (option int)) "replica copy caught up" (Some (List.hd keys + 100))
    (Hashtbl.find_opt copy (List.hd keys));
  (* Shard 0 dies outright (reads AND writes throw) — rebalance alone
     could never evacuate it; only the replica can. *)
  tbs.(0).killed := true;
  let rec trip budget =
    if budget = 0 then Alcotest.fail "breaker never opened"
    else
      match Router.call router (Svc.Insert (List.hd keys, 1)) with
      | Svc.Rejected Svc.Breaker_open -> ()
      | _ -> trip (budget - 1)
  in
  trip 60;
  let healed = ref 0 in
  for _ = 1 to 6 do
    advance 1;
    healed := !healed + Supervisor.run_tick sup router
  done;
  Alcotest.(check int) "exactly one heal" 1 !healed;
  Alcotest.(check int) "a promotion, not a copy" 1 (Router.promotions router);
  Alcotest.(check bool) "replica retired" false (Replica.replicated reps ~slot:0);
  (match Router.slots_of_shard router with
  | [| 0; 2 |] -> ()
  | a ->
      Alcotest.failf "shard 0 not evacuated: slots=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int a))));
  (* Recovery is complete without operator intervention: the evacuated
     corpse no longer degrades overall health, and every key serves
     fresh from the new owner with its replicated value. *)
  let line = Health.line router in
  Alcotest.(check bool)
    (Printf.sprintf "health back to ok (%s)" line)
    true
    (String.length line >= 3 && String.sub line 0 3 = "ok ");
  List.iter
    (fun k ->
      Alcotest.check outcome
        (Printf.sprintf "key %d fresh from the new owner" k)
        (Svc.Served true)
        (Router.call router (Svc.Find k));
      Alcotest.(check (option int))
        (Printf.sprintf "key %d value survived" k)
        (Some (k + 100))
        (Hashtbl.find_opt tbs.(1).h k))
    keys;
  (* The serve loop's flight-dump feed saw the heal begin and end. *)
  let evs = Supervisor.events sup in
  Alcotest.(check bool) "heal begun event (promote)" true
    (List.exists
       (function
         | Supervisor.Heal_begun { e_shard = 0; e_via = Supervisor.Promote; _ }
           ->
             true
         | _ -> false)
       evs);
  Alcotest.(check bool) "heal ended ok" true
    (List.exists
       (function
         | Supervisor.Heal_ended { e_ok = true; e_moved; _ } ->
             e_moved = List.length keys
         | _ -> false)
       evs)

(* --- Hedged reads racing a live handoff ------------------------------- *)

(* A reader forced down the hedge path (shed rejects reads at the door,
   the router retries them straight at the backend) races a writer
   bumping one key's value while the main thread hands the key's slot
   over.  The inflight mark taken at [begin_op] pins the key's owner for
   the whole call, and a key is copied only once its inflight count
   drains — so no read may observe state older than the copy watermark:
   per reader, observed values never go backwards, and the key never
   vanishes once seen.  Values are observed at the backend seam (the
   hedge reads it directly), keyed by domain so the migrator's own copy
   reads are excluded. *)
let test_hedged_read_vs_handoff =
  Support.qcheck ~count:15 "hedge vs handoff: never behind the drain watermark"
    QCheck2.Gen.(pair (0 -- 1000) (0 -- 7))
    (fun (seed, key) ->
      let clock = Clock.real () in
      let shards = 2 in
      let ring = Hash_ring.create ~seed ~shards () in
      let mu = Mutex.create () in
      let log = ref [] in
      let hs = Array.init shards (fun _ -> Hashtbl.create 32) in
      (* Replace-semantics stores: insert overwrites, so the writer's
         monotone values are directly the linearization order. *)
      let backend i =
        let h = hs.(i) in
        {
          Router.insert =
            (fun k v ->
              Mutex.lock mu;
              Hashtbl.replace h k v;
              Mutex.unlock mu;
              true);
          delete =
            (fun k ->
              Mutex.lock mu;
              let r = Hashtbl.mem h k in
              Hashtbl.remove h k;
              Mutex.unlock mu;
              r);
          find =
            (fun k ->
              Mutex.lock mu;
              let r = Hashtbl.find_opt h k in
              log :=
                ((Domain.self () :> int), Option.value r ~default:0) :: !log;
              Mutex.unlock mu;
              r);
          batched = None;
        }
      in
      let cfg _ =
        Svc.config ~clock
          ~shed:(Some (Lf_svc.Shed.config ~max_queue:8 ()))
          ()
      in
      let router = Router.create ~ring ~svc_config:cfg backend in
      let slot = Hash_ring.slot_of ring key in
      let to_ = 1 - Hash_ring.owner ring slot in
      let stop = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            let v = ref 1 in
            while not (Atomic.get stop) do
              (match Router.call router (Svc.Insert (key, !v)) with
              | Svc.Served _ -> incr v
              | _ -> ());
              Domain.cpu_relax ()
            done)
      in
      let reader =
        Domain.spawn (fun () ->
            let id = (Domain.self () :> int) in
            let ok = ref true in
            for _ = 1 to 300 do
              (match Router.call router ~queue_depth:1_000 (Svc.Find key) with
              | Svc.Served _ -> ()
              | _ -> ok := false);
              Domain.cpu_relax ()
            done;
            (id, !ok))
      in
      Unix.sleepf 0.001;
      let moved = Router.rebalance router ~slot ~to_ ~key_range:8 in
      let reader_id, reads_served = Domain.join reader in
      Atomic.set stop true;
      Domain.join writer;
      let observed =
        List.rev_map snd
          (List.filter (fun (d, _) -> d = reader_id) !log)
      in
      (* Monotone: once a value (or presence) is observed, no later read
         may fall behind it — the handoff never exposes pre-copy
         state. *)
      let monotone =
        fst
          (List.fold_left
             (fun (ok, prev) v -> (ok && v >= prev, max prev v))
             (true, 0) observed)
      in
      let hedged =
        Array.fold_left (fun a (att, _) -> a + att) 0
          (Router.hedge_stats router)
      in
      moved >= 0 && reads_served && monotone && hedged > 0
      && observed <> [])

let test_health_and_metrics () =
  let clock, _ = Clock.manual () in
  let ring = Hash_ring.create ~seed:8 ~shards:2 () in
  let pairs = Array.init 2 (fun _ -> table_backend ()) in
  (* Two attempts per call, so a killed shard's retry reaches the line. *)
  let router =
    Router.create ~ring
      ~svc_config:(fun _ ->
        Svc.config ~clock
          ~retry:(Some (Lf_svc.Retry.policy ~max_attempts:2 ()))
          ())
      (fun i -> snd pairs.(i))
  in
  List.iter
    (fun k -> ignore (Router.call router (Svc.Insert (k, k))))
    (List.init 10 Fun.id);
  let line = Health.line router in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "health names every shard" true
    (contains line "s0=" && contains line "s1=");
  (fst pairs.(0)).killed := true;
  (match Router.call router (Svc.Find (shard_key ring 0)) with
   | _ -> ());
  let line = Health.line router in
  Alcotest.(check int) "the killed shard retried once" 1
    (Router.stats router).(0).retries;
  Array.iteri
    (fun i (st : Svc.stats) ->
      let rejected = List.fold_left (fun a (_, n) -> a + n) 0 st.rejected in
      Alcotest.(check bool)
        (Printf.sprintf "s%d carries retries= after rejected=" i)
        true
        (contains line
           (Printf.sprintf "failed=%d rejected=%d retries=%d hedged=" st.failed
              rejected st.retries)))
    (Router.stats router);
  let text = Lf_obs.Prom.render_metrics (Health.metrics router) in
  match Lf_obs.Prom.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "per-shard metrics not valid exposition: %s" e

let () =
  Alcotest.run "shard"
    [
      ( "ring",
        [
          test_ring_deterministic;
          test_ring_reassign;
          test_ring_table_keys;
          test_ring_table_positions;
          Alcotest.test_case "slot_of allocation budget" `Quick
            test_slot_of_alloc;
        ] );
      ( "routing",
        [
          test_routing_hits_owner;
          test_one_shard_router_matches_pipeline;
          Alcotest.test_case "scatter-gather partial failure" `Quick
            test_call_many_partial_failure;
          Alcotest.test_case "every exit unmarks its keys" `Quick
            test_inflight_unmarked;
          Alcotest.test_case "call and call_many allocation budget" `Quick
            test_router_alloc;
        ] );
      ( "hedging",
        [
          Alcotest.test_case "read hedges around a tripped shard" `Quick
            test_hedged_read_tripped_shard;
          Alcotest.test_case "hedge off / dead backend" `Quick
            test_hedge_off_and_dead_backend;
        ] );
      ( "rebalance",
        [
          test_rebalance_conservation;
          Alcotest.test_case "per-key linearizability across a handoff"
            `Quick test_linearizable_across_rebalance;
          Alcotest.test_case "abort journaled, watermark kept, resume" `Quick
            test_abort_and_resume;
          test_hedged_read_vs_handoff;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "shard-targeted stall, watchdog clean" `Quick
            test_chaos_shard_targeted_stall;
        ] );
      ( "health",
        [
          Alcotest.test_case "line + metrics exposition" `Quick
            test_health_and_metrics;
          Alcotest.test_case "breaker-open anomaly fires once" `Quick
            test_monitor_no_double_fire;
        ] );
      ( "replica",
        [
          Alcotest.test_case "journal, budgeted apply, lag" `Quick
            test_replica_journal_and_lag;
          Alcotest.test_case "failover reads are stale-tagged" `Quick
            test_replica_failover_stale_tagged;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "hysteresis and exponential backoff" `Quick
            test_supervisor_hysteresis_and_backoff;
          Alcotest.test_case "shed-rate sickness, SLO fast burn" `Quick
            test_supervisor_shed_sick_and_fast_burn;
          Alcotest.test_case "resume priority and promote targeting" `Quick
            test_supervisor_resume_priority_and_promote_target;
          Alcotest.test_case "promotes a replica off a dead shard" `Quick
            test_supervisor_promotes_off_dead_shard;
        ] );
    ]
