(** The self-healing supervisor: watches per-shard health signals and
    drives the router's migration machinery to evacuate slots off
    persistently-sick shards — closing the loop that PR 8's mechanism
    (rebalance) and PR 9's signals (health, SLO burn) left open.

    A policy state machine in the [Svc] breaker/shed mould: every
    decision under one mutex, paced purely by Clock-seam tick
    comparison (never a sleep — the [no-policy-sleep] lint rule pins
    this), every transition journaled.

    Safeguards against healing doing harm:
    - {e hysteresis}: a shard must be sick for [sick_after]
      {e consecutive} polls before any move (halved while the SLO
      fast-burn bit is set — the budget is burning, act sooner), and a
      target must have been ok for [healthy_after] consecutive polls;
    - {e move budgets}: at most [move_budget] evacuations are planned
      per poll, so healing never becomes a migration storm;
    - {e exponential backoff}: a failed migration backs the source
      shard off ([backoff_base] doubling to [backoff_max] ticks); the
      router's aborted-migration record is resumed with priority once
      the backoff expires (its watermark holds routing until done).

    Evacuation prefers {!Router.promote} (make the slot's lagged
    replica authoritative on its host shard) when the slot is
    replicated, else {!Router.rebalance} onto the least-loaded healthy
    shard. *)

type via = Copy  (** rebalance: copy keys off the primary *)
        | Promote  (** make the slot's replica authoritative *)

type action = { a_slot : int; a_from : int; a_to : int; a_via : via }

type event =
  | Heal_begun of { e_shard : int; e_slot : int; e_to : int; e_via : via }
  | Heal_ended of {
      e_shard : int;
      e_slot : int;
      e_ok : bool;
      e_moved : int;
    }
      (** Queued by {!run_tick}, drained by {!events} — the
          serve loop turns these into flight-recorder dumps. *)

type config

val config :
  ?poll_every:int ->
  ?sick_after:int ->
  ?healthy_after:int ->
  ?move_budget:int ->
  ?backoff_base:int ->
  ?backoff_max:int ->
  ?shed_sick_pct:int ->
  ?apply_budget:int ->
  clock:Lf_svc.Clock.t ->
  unit ->
  config
(** Defaults: poll every tick, sick after 3 polls, targets healthy
    after 2, one move per poll, backoff 4 doubling to 64 ticks, a poll
    also counts sick above 50% rejected, 256 replica journal entries
    applied per tick.  There is no key bound: a heal walks the keys the
    source shard holds ({!Router.rebalance}), so the router it drives
    must have been created with [~next_key] (a heal without one fails
    and backs off like any failed migration).
    @raise Invalid_argument on non-positive pacing parameters. *)

type t

val create : config -> shards:int -> t

val tick :
  t ->
  now:int ->
  health:Health.shard_health list ->
  assignment:int array ->
  replica_host:(int -> int option) ->
  pending_abort:(int * int * int) option ->
  fast_burn:bool ->
  action list
(** The pure decision step: fold one health poll into the hysteresis
    counters and plan this poll's evacuations.  Returns [[]] when the
    poll is not yet due ([poll_every]), when nothing is sick, when
    every sick shard is backing off, or when no eligible target
    exists.  [pending_abort = Some (slot, from, to_)] is the router's
    aborted-migration record; resuming it preempts all other planning,
    by {!Router.promote} when the slot is replicated (whichever shard
    hosts the copy), else by {!Router.rebalance}.
    Replayable: the decision is a pure function of the inputs and the
    accumulated counter state. *)

val report : t -> now:int -> action -> ok:bool -> moved:int -> unit
(** Feed an execution result back: success re-arms the source shard
    immediately (keep draining it next poll); failure backs it off
    exponentially. *)

val run_tick : ?fast_burn:bool -> t -> Router.t -> int
(** One full supervisor turn: apply a bounded slice of the replica
    journal, poll {!Health.of_router}, {!tick}, and actuate each planned
    action ({!Router.promote}/{!Router.rebalance}, which move every key of
    the slot the source holds), catching migration failures into a
    [report ~ok:false] and queueing begin/end events.  Returns the number
    of migrations that completed.  Safe to
    call from the serve loop on every request — [poll_every] gates the
    actual work. *)

val events : t -> event list
(** Drain queued heal begin/end events, oldest first. *)

val journal : t -> string list
(** The supervisor's decision journal (sick/recovered transitions, heal
    begin/end/fail lines, each stamped [t=<tick>]), oldest first,
    bounded. *)

type stats = {
  polls : int;
  heals_begun : int;
  heals_done : int;
  heals_failed : int;
  keys_moved : int;
  sick : int list;  (** shards past the sick threshold right now *)
}

val stats : t -> stats

val line : t -> string
(** One greppable line for the HEAL wire verb:
    [HEAL polls=.. begun=.. done=.. failed=.. moved=.. sick=..]. *)
