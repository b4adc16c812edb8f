module Svc = Lf_svc.Svc

type shard_health = {
  h_id : int;
  h_ok : bool;
  h_breaker : string;
  h_slots : int;
  h_calls : int;
  h_served : int;
  h_failed : int;
  h_rejected : int;
  h_retries : int;
  h_hedged : int;
  h_hedge_wins : int;
}

let of_router r =
  let stats = Router.stats r
  and hedged = Router.hedge_stats r
  and slots = Router.slots_of_shard r in
  Array.to_list
    (Array.mapi
       (fun i (s : Svc.stats) ->
         let ok = match s.breaker with None | Some "closed" -> true | Some _ -> false in
         {
           h_id = i;
           h_ok = ok;
           h_breaker = Option.value s.breaker ~default:"none";
           h_slots = slots.(i);
           h_calls = s.calls;
           h_served = s.served;
           h_failed = s.failed;
           h_rejected = List.fold_left (fun a (_, n) -> a + n) 0 s.rejected;
           h_retries = s.retries;
           h_hedged = fst hedged.(i);
           h_hedge_wins = snd hedged.(i);
         })
       stats)

(* An evacuated shard (sick, but owning no slots — the supervisor moved
   its keyspace away) no longer degrades the service: overall health is
   about the keyspace that is actually served. *)
let line r =
  let hs = of_router r in
  let counts h = h.h_ok || h.h_slots = 0 in
  let overall = if List.for_all counts hs then "ok" else "degraded" in
  let shard h =
    Printf.sprintf
      "s%d=%s(%s) slots=%d calls=%d served=%d failed=%d rejected=%d \
       retries=%d hedged=%d/%d"
      h.h_id
      (if h.h_ok then "ok" else if h.h_slots = 0 then "evacuated" else "degraded")
      h.h_breaker h.h_slots h.h_calls h.h_served h.h_failed h.h_rejected
      h.h_retries h.h_hedge_wins h.h_hedged
  in
  Printf.sprintf "%s shards=%d migrated=%d %s" overall (List.length hs)
    (Router.migrated_keys r)
    (String.concat " " (List.map shard hs))

let metrics r =
  let hs = of_router r in
  let label h = [ ("shard", string_of_int h.h_id) ] in
  let per f = List.map (fun h -> (label h, float_of_int (f h))) hs in
  let open Lf_obs.Prom in
  [
    {
      m_name = "lf_shard_calls_total";
      m_help = "Requests routed to each shard's pipeline";
      m_type = "counter";
      m_samples = per (fun h -> h.h_calls);
    };
    {
      m_name = "lf_shard_served_total";
      m_help = "Requests served per shard, degraded modes included";
      m_type = "counter";
      m_samples = per (fun h -> h.h_served);
    };
    {
      m_name = "lf_shard_failed_total";
      m_help = "Requests that executed and gave up, per shard";
      m_type = "counter";
      m_samples = per (fun h -> h.h_failed);
    };
    {
      m_name = "lf_shard_rejected_total";
      m_help = "Requests rejected by each shard's admission pipeline, by reason";
      m_type = "counter";
      m_samples =
        List.concat_map
          (fun (i, (s : Svc.stats)) ->
            List.map
              (fun (reason, n) ->
                ( [ ("shard", string_of_int i); ("reason", reason) ],
                  float_of_int n ))
              s.rejected)
          (List.mapi (fun i s -> (i, s)) (Array.to_list (Router.stats r)));
    };
    {
      m_name = "lf_shard_hedged_reads_total";
      m_help = "Reads failed over directly to the shard backend";
      m_type = "counter";
      m_samples = per (fun h -> h.h_hedged);
    };
    {
      m_name = "lf_shard_hedge_wins_total";
      m_help = "Hedged reads the backend actually served";
      m_type = "counter";
      m_samples = per (fun h -> h.h_hedge_wins);
    };
    {
      m_name = "lf_shard_degraded";
      m_help = "1 while the shard's breaker is not closed";
      m_type = "gauge";
      m_samples = per (fun h -> if h.h_ok then 0 else 1);
    };
    {
      m_name = "lf_shard_migrated_keys_total";
      m_help = "Keys moved by rebalance handoffs";
      m_type = "counter";
      m_samples = [ ([], float_of_int (Router.migrated_keys r)) ];
    };
    {
      m_name = "lf_shard_rebalances_total";
      m_help = "Completed rebalance handoffs";
      m_type = "counter";
      m_samples = [ ([], float_of_int (Router.rebalances r)) ];
    };
    {
      m_name = "lf_shard_rebalance_drained_keys_total";
      m_help = "Rebalanced keys that waited for in-flight operations";
      m_type = "counter";
      m_samples = [ ([], float_of_int (Router.drained_keys r)) ];
    };
    {
      m_name = "lf_shard_slots";
      m_help = "Slots currently assigned to each shard (0 = evacuated)";
      m_type = "gauge";
      m_samples = per (fun h -> h.h_slots);
    };
    {
      m_name = "lf_shard_migration_aborts_total";
      m_help = "Migrations that died mid-drain and journaled an abort";
      m_type = "counter";
      m_samples = [ ([], float_of_int (Router.aborts r)) ];
    };
    {
      m_name = "lf_shard_promotions_total";
      m_help = "Replica promotions completed";
      m_type = "counter";
      m_samples = [ ([], float_of_int (Router.promotions r)) ];
    };
    {
      m_name = "lf_shard_stale_reads_total";
      m_help = "Reads served from a replica, every one stale-tagged";
      m_type = "counter";
      m_samples = [ ([], float_of_int (Router.stale_reads r)) ];
    };
  ]
  @
  (* Replica status, one sample per replicated slot: present only when
     a replica set is attached, so the unreplicated server's snapshot
     is byte-stable across this PR. *)
  match Router.replicas r with
  | None -> []
  | Some reps ->
      let now = Lf_svc.Clock.now (Router.clock r) in
      let rs = Replica.stats reps ~now in
      let per f =
        List.map
          (fun (s : Replica.slot_stats) ->
            ( [
                ("slot", string_of_int s.Replica.s_slot);
                ("on", string_of_int s.Replica.s_on);
              ],
              float_of_int (f s) ))
          rs
      in
      let open Lf_obs.Prom in
      [
        {
          m_name = "lf_shard_replica_lag_ticks";
          m_help = "Replica apply lag behind the primary journal";
          m_type = "gauge";
          m_samples = per (fun s -> s.Replica.s_lag);
        };
        {
          m_name = "lf_shard_replica_pending";
          m_help = "Journal entries recorded but not yet applied";
          m_type = "gauge";
          m_samples = per (fun s -> s.Replica.s_pending);
        };
        {
          m_name = "lf_shard_replica_applied_total";
          m_help = "Journal entries applied to replica copies";
          m_type = "counter";
          m_samples = per (fun s -> s.Replica.s_applied);
        };
      ]

let open_breakers r =
  List.filter_map
    (fun h -> if h.h_ok then None else Some h.h_id)
    (of_router r)

(* The anomaly trigger's snapshot cache (the KILL/FLIGHTDUMP
   double-fire fix): [newly_open] diffs against the last snapshot it
   saw, and [mark_open] lets a chaos KILL pre-mark its victim so the
   breaker trip that inevitably follows is attributed to the kill
   bundle already dumped, not fired again as a fresh breaker-open
   anomaly. *)
type monitor = { mutable m_last : int list }

let monitor () = { m_last = [] }

let newly_open mon r =
  let now_open = open_breakers r in
  let fresh = List.filter (fun i -> not (List.mem i mon.m_last)) now_open in
  mon.m_last <- now_open;
  fresh

let mark_open mon s =
  if not (List.mem s mon.m_last) then mon.m_last <- mon.m_last @ [ s ]
