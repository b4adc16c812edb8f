(** Per-shard health accounting: one status per shard derived from its
    pipeline's stats, a one-line rendering for the wire protocol's
    HEALTH verb, and Prometheus metric blocks with a [shard] label. *)

type shard_health = {
  h_id : int;
  h_ok : bool;  (** breaker absent or closed *)
  h_breaker : string;  (** "none" when the shard has no breaker *)
  h_slots : int;  (** slots currently assigned; 0 = evacuated *)
  h_calls : int;
  h_served : int;
  h_failed : int;
  h_rejected : int;
  h_retries : int;  (** retries issued by the shard's pipeline *)
  h_hedged : int;  (** hedge attempts via the failover read path *)
  h_hedge_wins : int;  (** of which the backend served the read *)
}

val of_router : Router.t -> shard_health list
(** One entry per shard, in shard order. *)

val line : Router.t -> string
(** One line: overall status, shard count, keys migrated, then
    [s<i>=ok(closed)] / [s<i>=degraded(open)] / [s<i>=evacuated(open)]
    and aggregate counters per shard ([retries=<n>],
    [hedged=<wins>/<attempts>]) —
    stable order, greppable.  Overall is [ok] iff every shard that
    still owns slots is ok: a sick shard the supervisor has fully
    evacuated no longer degrades the service. *)

val metrics : Router.t -> Lf_obs.Prom.metric list
(** [lf_shard_*] counter/gauge blocks labelled [shard="<i>"]: calls,
    served, failed, rejected (by reason), hedged reads (attempts and
    wins), a degraded 0/1 gauge, slot assignment, and the router's
    migrated-key, rebalance, drained-key, abort, promotion and
    stale-read totals.  When a replica set is attached, also
    [lf_shard_replica_*] (lag, pending, applied) labelled
    [slot="<s>",on="<shard>"].  Renders through
    {!Lf_obs.Prom.render_metrics}; the concatenation with
    {!Lf_obs.Prom.snapshot} passes {!Lf_obs.Prom.validate}. *)

val open_breakers : Router.t -> int list
(** Ids of shards whose breaker is currently not closed, ascending —
    the flight recorder's breaker-open anomaly trigger diffs this
    between polls. *)

type monitor
(** A cached open-breaker snapshot for the anomaly trigger: the diff
    and the cache live together, so two observers (a KILL handler and
    the per-request check) cannot each fire a bundle for the same
    breaker opening. *)

val monitor : unit -> monitor

val newly_open : monitor -> Router.t -> int list
(** Shards whose breaker is open now but was not in the cached
    snapshot; updates the cache.  Each opening is reported exactly
    once until the breaker closes again. *)

val mark_open : monitor -> int -> unit
(** Pre-mark a shard as known-open without observing it — the KILL
    handler calls this after dumping its own bundle, so the victim's
    inevitable breaker trip is not double-fired as a fresh
    breaker-open anomaly. *)
