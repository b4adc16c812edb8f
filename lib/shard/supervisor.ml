(* The self-healing supervisor: a policy state machine in the same
   mould as Svc's breaker and shed — every decision taken under one
   mutex, paced purely by comparing Clock ticks (never by sleeping; the
   no-policy-sleep lint pins this), each transition journaled so a heal
   replays from its journal during a post-mortem.

   Signal -> decision -> actuation, strictly separated:
   - the *signal* is a Health snapshot (breaker state, shed rate) plus
     the serve SLO's fast-burn bit, folded into per-shard sick/ok poll
     counters (hysteresis: one bad poll never triggers a move);
   - the *decision* is [tick]: a pure function of the counters, the
     slot assignment and the clock that emits at most [move_budget]
     evacuation actions per poll, respecting per-shard exponential
     backoff after failed migrations — healing must never become a
     migration storm;
   - the *actuation* is [run_tick], which executes the planned actions
     against the router ([promote] for replicated slots, [rebalance]
     otherwise), reports results back into the backoff bookkeeping, and
     queues begin/end events for the flight recorder. *)

module Clock = Lf_svc.Clock

type via = Copy | Promote

type action = { a_slot : int; a_from : int; a_to : int; a_via : via }

type event =
  | Heal_begun of { e_shard : int; e_slot : int; e_to : int; e_via : via }
  | Heal_ended of {
      e_shard : int;
      e_slot : int;
      e_ok : bool;
      e_moved : int;
    }

type config = {
  clock : Clock.t;
  poll_every : int;  (* ticks between health polls *)
  sick_after : int;  (* consecutive sick polls before evacuating *)
  healthy_after : int;  (* consecutive ok polls before a shard is a target *)
  move_budget : int;  (* max evacuations planned per poll *)
  backoff_base : int;  (* ticks; doubles per consecutive failure *)
  backoff_max : int;
  shed_sick_pct : int;
      (* a poll also counts sick when rejected/calls since the last
         poll exceeds this percentage — a shard can be drowning in
         sheds with its breaker still closed *)
  apply_budget : int;  (* replica journal entries applied per tick *)
}

let config ?(poll_every = 1) ?(sick_after = 3) ?(healthy_after = 2)
    ?(move_budget = 1) ?(backoff_base = 4) ?(backoff_max = 64)
    ?(shed_sick_pct = 50) ?(apply_budget = 256) ~clock () =
  if poll_every < 1 then invalid_arg "Supervisor.config: poll_every < 1";
  if sick_after < 1 then invalid_arg "Supervisor.config: sick_after < 1";
  if move_budget < 1 then invalid_arg "Supervisor.config: move_budget < 1";
  {
    clock;
    poll_every;
    sick_after;
    healthy_after;
    move_budget;
    backoff_base;
    backoff_max;
    shed_sick_pct;
    apply_budget;
  }

type shard_state = {
  mutable sick_polls : int;  (* consecutive polls observed sick *)
  mutable ok_polls : int;  (* consecutive polls observed ok *)
  mutable fails : int;  (* consecutive failed migrations off this shard *)
  mutable next_try : int;  (* no moves off this shard before this tick *)
  mutable last_calls : int;  (* for the shed-rate delta *)
  mutable last_rejected : int;
}

type t = {
  cfg : config;
  mu : Mutex.t;
  state : shard_state array;
  mutable last_poll : int;  (* tick of the last accepted poll; min_int = never *)
  mutable polls : int;
  mutable begun : int;
  mutable healed : int;
  mutable failed : int;
  mutable moved : int;  (* keys moved by completed heals *)
  mutable journal : string list;  (* newest first, bounded *)
  mutable journal_n : int;
  pending : event Queue.t;
}

let journal_limit = 64

let create cfg ~shards =
  if shards < 1 then invalid_arg "Supervisor.create: shards < 1";
  {
    cfg;
    mu = Mutex.create ();
    state =
      Array.init shards (fun _ ->
          {
            sick_polls = 0;
            ok_polls = 0;
            fails = 0;
            next_try = min_int;
            last_calls = 0;
            last_rejected = 0;
          });
    last_poll = min_int;
    polls = 0;
    begun = 0;
    healed = 0;
    failed = 0;
    moved = 0;
    journal = [];
    journal_n = 0;
    pending = Queue.create ();
  }

(* Journal lines carry the supervisor's own tick so they join against
   the router journal and span dumps during reconstruction. *)
let note_locked t ~now fmt =
  Printf.ksprintf
    (fun line ->
      let line = Printf.sprintf "t=%d %s" now line in
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      t.journal <- line :: take (journal_limit - 1) t.journal;
      t.journal_n <- t.journal_n + 1)
    fmt

let journal t =
  Mutex.lock t.mu;
  let j = List.rev t.journal in
  Mutex.unlock t.mu;
  j

let events t =
  Mutex.lock t.mu;
  let out = List.rev (Queue.fold (fun acc e -> e :: acc) [] t.pending) in
  Queue.clear t.pending;
  Mutex.unlock t.mu;
  out

(* One health poll folded into the per-shard hysteresis counters.
   Sickness is breaker-not-closed OR a shed rate above the configured
   percentage since the last poll. *)
let observe_locked t ~now (health : Health.shard_health list) =
  List.iter
    (fun (h : Health.shard_health) ->
      let s = t.state.(h.h_id) in
      let calls_d = h.h_calls - s.last_calls
      and rej_d = h.h_rejected - s.last_rejected in
      s.last_calls <- h.h_calls;
      s.last_rejected <- h.h_rejected;
      let shedding =
        calls_d > 0 && rej_d * 100 > t.cfg.shed_sick_pct * calls_d
      in
      let sick = (not h.h_ok) || shedding in
      if sick then begin
        s.ok_polls <- 0;
        s.sick_polls <- s.sick_polls + 1;
        if s.sick_polls = t.cfg.sick_after then
          note_locked t ~now "shard %d sick (breaker=%s polls=%d%s)" h.h_id
            h.h_breaker s.sick_polls
            (if shedding then " shedding" else "")
      end
      else begin
        if s.sick_polls >= t.cfg.sick_after then
          note_locked t ~now "shard %d recovered (breaker=%s)" h.h_id
            h.h_breaker;
        s.sick_polls <- 0;
        s.ok_polls <- s.ok_polls + 1
      end)
    health

(* The pure planning step: which slots to move, where, this poll.
   [replica_host slot] names the promotion target when the slot is
   replicated.  [pending_abort] is a migration the router left aborted
   mid-drain — resuming it has absolute priority (its watermark holds
   routing hostage until it finishes), still gated by the source
   shard's backoff.  A replicated slot resumes by promotion, whatever
   shard hosts the copy: the source may be dead, and the promotion
   finishes the walk to the record's target from the copy. *)
let plan_locked t ~now ~assignment ~replica_host ~pending_abort ~fast_burn =
  let sick_after =
    (* An SLO fast burn halves the hysteresis: the budget is burning
       now, so act on a shorter streak of bad polls. *)
    if fast_burn then max 1 (t.cfg.sick_after / 2) else t.cfg.sick_after
  in
  let n = Array.length t.state in
  let sick i = t.state.(i).sick_polls >= sick_after in
  let eligible i = (not (sick i)) && t.state.(i).ok_polls >= t.cfg.healthy_after in
  let load = Array.make n 0 in
  Array.iter (fun s -> if s >= 0 && s < n then load.(s) <- load.(s) + 1) assignment;
  match pending_abort with
  | Some (slot, from, to_) when now >= t.state.(from).next_try ->
      let via = if replica_host slot = None then Copy else Promote in
      [ { a_slot = slot; a_from = from; a_to = to_; a_via = via } ]
  | Some _ -> []  (* an aborted migration is backing off: nothing else
                     can start while its record holds the watermark *)
  | None ->
      let actions = ref [] and budget = ref t.cfg.move_budget in
      Array.iteri
        (fun slot owner ->
          if !budget > 0 && sick owner && now >= t.state.(owner).next_try then begin
            let target =
              match replica_host slot with
              | Some h when eligible h -> Some (h, Promote)
              | Some _ | None ->
                  (* least-loaded eligible shard; ties to the lowest id
                     keep the plan deterministic *)
                  let best = ref (-1) in
                  for i = n - 1 downto 0 do
                    if
                      i <> owner && eligible i
                      && (!best < 0 || load.(i) <= load.(!best))
                    then best := i
                  done;
                  if !best < 0 then None else Some (!best, Copy)
            in
            match target with
            | None -> ()
            | Some (to_, via) ->
                decr budget;
                load.(to_) <- load.(to_) + 1;
                load.(owner) <- load.(owner) - 1;
                actions :=
                  { a_slot = slot; a_from = owner; a_to = to_; a_via = via }
                  :: !actions
          end)
        assignment;
      List.rev !actions

let tick t ~now ~health ~assignment ~replica_host ~pending_abort ~fast_burn =
  Mutex.lock t.mu;
  let due = t.last_poll = min_int || now - t.last_poll >= t.cfg.poll_every in
  let actions =
    if not due then []
    else begin
      t.last_poll <- now;
      t.polls <- t.polls + 1;
      observe_locked t ~now health;
      plan_locked t ~now ~assignment ~replica_host ~pending_abort ~fast_burn
    end
  in
  Mutex.unlock t.mu;
  actions

let report t ~now (a : action) ~ok ~moved =
  Mutex.lock t.mu;
  let s = t.state.(a.a_from) in
  if ok then begin
    s.fails <- 0;
    s.next_try <- now;  (* next poll may keep draining this shard *)
    t.healed <- t.healed + 1;
    t.moved <- t.moved + moved;
    note_locked t ~now "heal end slot=%d shard %d -> %d via=%s ok moved=%d"
      a.a_slot a.a_from a.a_to
      (match a.a_via with Copy -> "copy" | Promote -> "promote")
      moved
  end
  else begin
    s.fails <- s.fails + 1;
    let backoff =
      min t.cfg.backoff_max
        (t.cfg.backoff_base * (1 lsl min 16 (s.fails - 1)))
    in
    s.next_try <- now + backoff;
    t.failed <- t.failed + 1;
    note_locked t ~now "heal fail slot=%d shard %d -> %d backoff=%d fails=%d"
      a.a_slot a.a_from a.a_to backoff s.fails
  end;
  Mutex.unlock t.mu

(* Decision -> actuation: execute one planned action against the
   router.  Exceptions from the migration (a copy that kept failing,
   and the router journaled an abort) are converted into a failure
   report — the supervisor backs off and retries; the watermark record
   makes the retry a resume. *)
let execute t router (a : action) =
  let now = Clock.now t.cfg.clock in
  Mutex.lock t.mu;
  t.begun <- t.begun + 1;
  note_locked t ~now "heal begin slot=%d shard %d -> %d via=%s" a.a_slot
    a.a_from a.a_to
    (match a.a_via with Copy -> "copy" | Promote -> "promote");
  Queue.push
    (Heal_begun { e_shard = a.a_from; e_slot = a.a_slot; e_to = a.a_to; e_via = a.a_via })
    t.pending;
  Mutex.unlock t.mu;
  let ok, moved =
    match a.a_via with
    | Promote -> (
        try (true, Router.promote router ~slot:a.a_slot) with _ -> (false, 0))
    | Copy -> (
        try (true, Router.rebalance router ~slot:a.a_slot ~to_:a.a_to)
        with _ -> (false, 0))
  in
  let now = Clock.now t.cfg.clock in
  report t ~now a ~ok ~moved;
  Mutex.lock t.mu;
  Queue.push
    (Heal_ended { e_shard = a.a_from; e_slot = a.a_slot; e_ok = ok; e_moved = moved })
    t.pending;
  Mutex.unlock t.mu;
  ok

let run_tick ?(fast_burn = false) t router =
  let now = Clock.now t.cfg.clock in
  (* The async half of replication rides the supervisor's pace: a
     bounded slice of the journal per tick. *)
  (match Router.replicas router with
  | Some reps -> ignore (Replica.apply ~budget:t.cfg.apply_budget reps)
  | None -> ());
  let health = Health.of_router router in
  let assignment = Hash_ring.assignment (Router.ring router) in
  let replica_host slot =
    match Router.replicas router with
    | None -> None
    | Some reps -> Replica.host reps ~slot
  in
  let pending_abort =
    match Router.migration_status router with
    | Some ms when ms.Router.ms_aborted ->
        Some (ms.Router.ms_slot, ms.Router.ms_from, ms.Router.ms_to)
    | Some _ | None -> None
  in
  let actions =
    tick t ~now ~health ~assignment ~replica_host ~pending_abort ~fast_burn
  in
  List.fold_left
    (fun n a -> if execute t router a then n + 1 else n)
    0 actions

type stats = {
  polls : int;
  heals_begun : int;
  heals_done : int;
  heals_failed : int;
  keys_moved : int;
  sick : int list;  (* shards past the sick threshold right now *)
}

let stats t =
  Mutex.lock t.mu;
  let sick = ref [] in
  Array.iteri
    (fun i s -> if s.sick_polls >= t.cfg.sick_after then sick := i :: !sick)
    t.state;
  let s =
    {
      polls = t.polls;
      heals_begun = t.begun;
      heals_done = t.healed;
      heals_failed = t.failed;
      keys_moved = t.moved;
      sick = List.rev !sick;
    }
  in
  Mutex.unlock t.mu;
  s

let line t =
  let s = stats t in
  Printf.sprintf "HEAL polls=%d begun=%d done=%d failed=%d moved=%d sick=%s"
    s.polls s.heals_begun s.heals_done s.heals_failed s.keys_moved
    (match s.sick with
    | [] -> "-"
    | l -> String.concat "," (List.map string_of_int l))
