(* The shard router.  Synchronization model: one mutex guards routing
   state (ring, migration watermark, per-key inflight counts) and the
   small counters; dictionary operations themselves run OUTSIDE the
   mutex, through each shard's own Svc pipeline, so the router adds two
   short critical sections per call (route-and-mark, unmark), never a
   lock around the work.  [call_many] takes the same two for a whole
   line: it routes and marks every key under one, and unmarks them all
   under the other.

   Per-key linearizability across a handoff hangs on one invariant:
   at every instant each key has exactly one owner (assignment, or the
   watermark split while a migration runs), and a key is only copied
   while (a) the router mutex is held — no operation can acquire an
   owner for it — and (b) its in-flight count is zero — no operation
   that already acquired an owner is still running.  So the copy is
   atomic with respect to that key's operations, and the ownership flip
   happens inside the same critical section that performed the copy. *)

module Svc = Lf_svc.Svc
module Span = Lf_obs.Span

type backend = {
  insert : int -> int -> bool;
  delete : int -> bool;
  find : int -> int option;
  batched : unit option;
}

type shard = {
  id : int;
  svc : Svc.t;
  backend : backend;
  mutable hedged : int;  (* hedge attempts; guarded by the router mutex *)
  mutable hedge_wins : int;  (* of which served the read; same guard *)
}

type migration = {
  m_slot : int;
  m_from : int;
  m_to : int;
  mutable m_watermark : int;
      (* keys below this (in the slot) already live on [m_to] *)
  mutable m_aborted : bool;
      (* the copy loop died mid-drain: keys below the watermark are on
         [m_to], the rest still on [m_from].  The record stays — the
         watermark keeps routing correct (no key is ever owned by a
         shard that no longer holds it) — until a retry with the same
         slot and target resumes from the watermark. *)
}

(* The router's decision journal: rebalance begin/end lines for
   post-mortems, process-wide by design (one timeline even when a test
   builds several routers).  It carries no routing state — routing is
   a pure function of ring + migration — and is the one deliberate
   exception to the no-cross-shard-state lint (see its waiver). *)
let journal_log : string list ref = ref []

let journal_limit = 64

(* Every entry is stamped [#<seq> t=<tick>]: the sequence number is
   process-wide and monotonic, the tick is the owning router's clock, so
   journal lines join against span dumps during incident
   reconstruction. *)
let journal_seq = ref 0

let note ~now fmt =
  Printf.ksprintf
    (fun line ->
      incr journal_seq;
      let line = Printf.sprintf "#%d t=%d %s" !journal_seq now line in
      let keep = journal_limit - 1 in
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      journal_log := line :: take keep !journal_log)
    fmt

let journal () = List.rev !journal_log

(* Per-key in-flight counts, keyed by int with a cheap mix: no
   polymorphic hashing on the request path. *)
module Inflight = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

type t = {
  mutable ring : Hash_ring.t;
  shards : shard array;
  names : string array;  (* fan-out span names, precomputed per shard *)
  clock : Lf_svc.Clock.t;  (* shard 0's pipeline clock: span/journal ticks *)
  hedge_reads : bool;
  mu : Mutex.t;
  drained : Condition.t;  (* signalled when a key's inflight count drains *)
  inflight : int Inflight.t;
  mutable migration : migration option;
  mutable migrated : int;
  mutable rebalanced : int;
  mutable drained_keys : int;  (* rebalance keys that had to wait *)
  mutable aborts : int;  (* migrations that died mid-drain *)
  mutable promotions : int;  (* replica promotions completed *)
  mutable replicas : Replica.t option;
  mutable stale_reads : int;  (* reads served from a replica, stale-tagged *)
}

let ops_of_backend (b : backend) : Svc.ops =
  {
    Svc.insert = b.insert;
    delete = b.delete;
    find = (fun k -> b.find k <> None);
  }

let create ?(hedge_reads = true) ~ring ~svc_config mk_backend =
  let shards =
    Array.init (Hash_ring.shards ring) (fun i ->
        let backend = mk_backend i in
        let svc = Svc.create (svc_config i) (ops_of_backend backend) in
        { id = i; svc; backend; hedged = 0; hedge_wins = 0 })
  in
  {
    ring;
    shards;
    names = Array.init (Array.length shards) (Printf.sprintf "shard%d");
    clock = Svc.clock shards.(0).svc;
    hedge_reads;
    mu = Mutex.create ();
    drained = Condition.create ();
    inflight = Inflight.create 64;
    migration = None;
    migrated = 0;
    rebalanced = 0;
    drained_keys = 0;
    aborts = 0;
    promotions = 0;
    replicas = None;
    stale_reads = 0;
  }

let attach_replicas t reps = t.replicas <- Some reps
let replicas t = t.replicas

let ring t = t.ring
let clock t = t.clock

let owner_locked t k =
  let slot = Hash_ring.slot_of t.ring k in
  match t.migration with
  | Some m when m.m_slot = slot -> if k < m.m_watermark then m.m_to else m.m_from
  | _ -> Hash_ring.owner t.ring slot

let route t k =
  Mutex.lock t.mu;
  let s = owner_locked t k in
  Mutex.unlock t.mu;
  s

(* Acquire an owner for [k] and mark it in flight, atomically w.r.t.
   any migration. *)
let mark_locked t k =
  let n =
    if Inflight.mem t.inflight k then Inflight.find t.inflight k else 0
  in
  Inflight.replace t.inflight k (n + 1);
  owner_locked t k

let unmark_locked t k =
  if Inflight.mem t.inflight k then
    let n = Inflight.find t.inflight k in
    if n <= 1 then Inflight.remove t.inflight k
    else Inflight.replace t.inflight k (n - 1)

(* A migration waiting on a key's drain is woken by every unmark. *)
let wake_drain_locked t =
  match t.migration with
  | Some _ -> Condition.broadcast t.drained
  | None -> ()

let begin_op t k =
  Mutex.lock t.mu;
  let s = mark_locked t k in
  Mutex.unlock t.mu;
  s

let end_op t k =
  Mutex.lock t.mu;
  unmark_locked t k;
  wake_drain_locked t;
  Mutex.unlock t.mu

let in_flight t =
  Mutex.lock t.mu;
  let n = Inflight.length t.inflight in
  Mutex.unlock t.mu;
  n

let key_of = function Svc.Insert (k, _) -> k | Svc.Delete k -> k | Svc.Find k -> k
let is_read = function Svc.Find _ -> true | Svc.Insert _ | Svc.Delete _ -> false

(* Rejections worth failing over: the shard refused service (tripped
   breaker, full queue, infeasible deadline estimate), not the request
   itself.  An [Expired] request is dead wherever it runs. *)
let hedgeable = function
  | Svc.Breaker_open | Svc.Queue_full | Svc.Doomed -> true
  | Svc.Expired | Svc.Write_degraded -> false

(* The router's span tick, read only when a context is live so the
   untraced path never touches the clock. *)
let now_of t ctx = if Span.active ctx then Lf_svc.Clock.now t.clock else 0

(* Failover read straight at the backend, outside the pipeline: safe
   because searches in the underlying structures are non-blocking and
   write nothing a helper could not have written.  When the backend
   itself throws (the shard is dead, not merely tripped) and the key's
   slot is replicated, the read falls back to the lagged copy — always
   as [Served_stale], the staleness contract: a replica answer is never
   laundered into a fresh [Served].  Best effort — with no replica the
   original outcome stands. *)
let hedge t ~ctx sh k original =
  Mutex.lock t.mu;
  sh.hedged <- sh.hedged + 1;
  Mutex.unlock t.mu;
  let hspan = Span.begin_ ctx ~name:"hedge" ~now:(now_of t ctx) in
  let finish outcome ~won what =
    if Span.active hspan then
      Span.event hspan ~now:(now_of t hspan) (Span.Hedge_outcome what);
    Span.end_ hspan ~now:(now_of t hspan) ~ok:won;
    if won then begin
      Mutex.lock t.mu;
      sh.hedge_wins <- sh.hedge_wins + 1;
      Mutex.unlock t.mu
    end;
    outcome
  in
  let replica_fallback () =
    match t.replicas with
    | None -> finish original ~won:false "error"
    | Some reps -> (
        let slot = Hash_ring.slot_of t.ring k in
        match Replica.read reps ~slot ~key:k ~now:(Lf_svc.Clock.now t.clock) with
        | None -> finish original ~won:false "error"
        | Some (v, lag) ->
            Mutex.lock t.mu;
            t.stale_reads <- t.stale_reads + 1;
            Mutex.unlock t.mu;
            finish (Svc.Served_stale (v <> None, lag)) ~won:true "stale")
  in
  match sh.backend.find k with
  | Some _ -> finish (Svc.Served true) ~won:true "served"
  | None -> finish (Svc.Served false) ~won:true "served"
  | exception _ -> replica_fallback ()

let maybe_hedge t ~ctx sh req outcome =
  if not (t.hedge_reads && is_read req) then outcome
  else
    match outcome with
    | Svc.Rejected r when hedgeable r -> hedge t ~ctx sh (key_of req) outcome
    | Svc.Failed _ -> hedge t ~ctx sh (key_of req) outcome
    | o -> o

let outcome_ok = function
  | Svc.Served _ | Svc.Served_stale _ -> true
  | Svc.Rejected _ | Svc.Failed _ -> false

(* Feed the replica journal from successful primary writes.  Only a
   [Served] write is recorded: a rejected or failed write took no
   effect the replica should mirror (crash-semantics writes may have —
   the same uncertainty the primary itself carries). *)
let record_write t req out =
  match t.replicas with
  | None -> ()
  | Some reps -> (
      match (req, out) with
      | Svc.Insert (k, v), Svc.Served _ ->
          Replica.record reps
            ~slot:(Hash_ring.slot_of t.ring k)
            ~now:(Lf_svc.Clock.now t.clock)
            (Replica.Put (k, v))
      | Svc.Delete k, Svc.Served _ ->
          Replica.record reps
            ~slot:(Hash_ring.slot_of t.ring k)
            ~now:(Lf_svc.Clock.now t.clock)
            (Replica.Del k)
      | _ -> ())

(* The pipeline call with the fan-out span as its context.  The
   optional argument is boxed only while the span is live. *)
let svc_call sh fspan ~deadline ~queue_depth req =
  if Span.active fspan then
    Svc.call sh.svc ~ctx:fspan ?deadline ?queue_depth req
  else Svc.call sh.svc ?deadline ?queue_depth req

(* One fan-out span per shard touched, the shard's pipeline spans
   nested inside it. *)
let call_owned t ctx s ~deadline ~queue_depth req =
  let sh = t.shards.(s) in
  let fspan = Span.begin_ ctx ~name:t.names.(s) ~now:(now_of t ctx) in
  let out =
    maybe_hedge t ~ctx:fspan sh req
      (svc_call sh fspan ~deadline ~queue_depth req)
  in
  record_write t req out;
  Span.end_ fspan ~now:(now_of t fspan) ~ok:(outcome_ok out);
  out

let call t ?(ctx = Span.nil) ?deadline ?queue_depth req =
  let k = key_of req in
  let s = begin_op t k in
  match call_owned t ctx s ~deadline ~queue_depth req with
  | out ->
      end_op t k;
      out
  | exception e ->
      end_op t k;
      raise e

(* Shard [s]'s share of a line, in input order: every pipeline call
   first, then each outcome's hedge and journal entry. *)
let fan_out_shard t ctx s ~deadline ~queue_depth reqs owners out =
  let sh = t.shards.(s) in
  let fspan = Span.begin_ ctx ~name:t.names.(s) ~now:(now_of t ctx) in
  for i = 0 to Array.length reqs - 1 do
    if owners.(i) = s then
      out.(i) <- svc_call sh fspan ~deadline ~queue_depth reqs.(i)
  done;
  for i = 0 to Array.length reqs - 1 do
    if owners.(i) = s then begin
      let o = maybe_hedge t ~ctx:fspan sh reqs.(i) out.(i) in
      record_write t reqs.(i) o;
      out.(i) <- o
    end
  done;
  Span.end_ fspan ~now:(now_of t fspan) ~ok:true

let rec owns owners s i =
  i < Array.length owners && (owners.(i) = s || owns owners s (i + 1))

let fan_out t ctx ~deadline ~queue_depth reqs owners out =
  for s = 0 to Array.length t.shards - 1 do
    if owns owners s 0 then
      fan_out_shard t ctx s ~deadline ~queue_depth reqs owners out
  done

let unmark_all t reqs =
  Mutex.lock t.mu;
  for i = 0 to Array.length reqs - 1 do
    unmark_locked t (key_of reqs.(i))
  done;
  wake_drain_locked t;
  Mutex.unlock t.mu

let call_many t ?(ctx = Span.nil) ?deadline ?queue_depth reqs =
  match reqs with
  | [] -> []
  | _ -> (
      let reqs = Array.of_list reqs in
      let n = Array.length reqs in
      let owners = Array.make n 0 in
      Mutex.lock t.mu;
      for i = 0 to n - 1 do
        owners.(i) <- mark_locked t (key_of reqs.(i))
      done;
      Mutex.unlock t.mu;
      let out = Array.make n (Svc.Rejected Svc.Expired) in
      match fan_out t ctx ~deadline ~queue_depth reqs owners out with
      | () ->
          unmark_all t reqs;
          Array.to_list out
      | exception e ->
          unmark_all t reqs;
          raise e)

(* The migration engine behind [rebalance] and [promote]: set up (or
   resume) the watermark record, walk the keyspace with a per-key
   inflight drain, move each key via [copy_key] (called with the mutex
   held and the key's inflight count zero; returns whether a key
   moved), flip ownership at the end.  A copy that keeps failing after
   bounded retries *aborts* the migration: a terminal journal line is
   written and the record is kept with [m_aborted] set — the watermark
   keeps routing correct, so no key is ever owned by a shard that no
   longer holds it — and a retry with the same slot and target resumes
   the scan from the watermark (keys below it already moved; the copy
   is idempotent, so re-running the boundary key is a no-op). *)
let migrate t ~label ~slot ~to_ ~key_range ~copy_key =
  let n = Array.length t.shards in
  if slot < 0 || slot >= Hash_ring.shards t.ring then
    invalid_arg (Printf.sprintf "Router.%s: bad slot" label);
  if to_ < 0 || to_ >= n then
    invalid_arg (Printf.sprintf "Router.%s: bad shard" label);
  if key_range < 0 then invalid_arg (Printf.sprintf "Router.%s: bad key_range" label);
  Mutex.lock t.mu;
  let m =
    match t.migration with
    | Some m when m.m_aborted && m.m_slot = slot && m.m_to = to_ ->
        m.m_aborted <- false;
        note ~now:(Lf_svc.Clock.now t.clock)
          "%s slot=%d shard %d -> %d resume watermark=%d" label slot m.m_from
          to_ m.m_watermark;
        Some m
    | Some _ ->
        Mutex.unlock t.mu;
        invalid_arg
          (Printf.sprintf "Router.%s: a migration is already running" label)
    | None ->
        let from = Hash_ring.owner t.ring slot in
        if from = to_ then None
        else begin
          let m =
            {
              m_slot = slot;
              m_from = from;
              m_to = to_;
              m_watermark = min_int;
              m_aborted = false;
            }
          in
          t.migration <- Some m;
          note ~now:(Lf_svc.Clock.now t.clock) "%s slot=%d shard %d -> %d begin"
            label slot from to_;
          Some m
        end
  in
  match m with
  | None ->
      Mutex.unlock t.mu;
      0
  | Some m ->
      let from = m.m_from in
      Mutex.unlock t.mu;
      (* The drain phases of a migration are traced under their own
         root: when a migration stalls a request, the flight recorder
         shows a concurrent rebalance/promote tree with a drain span on
         the same key. *)
      let rctx = Span.root ~name:label ~now:(Lf_svc.Clock.now t.clock) in
      let ok = ref false in
      Fun.protect
        ~finally:(fun () ->
          Span.end_ rctx ~now:(Lf_svc.Clock.now t.clock) ~ok:!ok)
      @@ fun () ->
      let moved = ref 0 in
      for k = max 0 m.m_watermark to key_range - 1 do
        if Hash_ring.slot_of t.ring k = slot then begin
          Mutex.lock t.mu;
          if Inflight.mem t.inflight k then begin
            t.drained_keys <- t.drained_keys + 1;
            let dspan =
              Span.begin_ rctx ~name:"drain" ~now:(Lf_svc.Clock.now t.clock)
            in
            if Span.active dspan then
              Span.event dspan
                ~now:(Lf_svc.Clock.now t.clock)
                (Span.Drain_wait k);
            while Inflight.mem t.inflight k do
              Condition.wait t.drained t.mu
            done;
            Span.end_ dspan ~now:(Lf_svc.Clock.now t.clock) ~ok:true
          end;
          (* Inflight is zero and the mutex is held: no operation on [k]
             can start or be running, so copy-then-advance is atomic for
             this key.  Bounded retries absorb transient backend faults;
             the copy converges because re-running it is idempotent
             (insert of a present key is a no-op). *)
          let rec copy attempts =
            try if copy_key k then incr moved
            with e ->
              if attempts >= 3 then begin
                m.m_aborted <- true;
                t.aborts <- t.aborts + 1;
                note ~now:(Lf_svc.Clock.now t.clock)
                  "%s slot=%d shard %d -> %d abort moved=%d watermark=%d"
                  label slot from to_ !moved m.m_watermark;
                Condition.broadcast t.drained;
                Mutex.unlock t.mu;
                raise e
              end
              else copy (attempts + 1)
          in
          copy 0;
          m.m_watermark <- k + 1;
          Mutex.unlock t.mu
        end
      done;
      Mutex.lock t.mu;
      t.ring <- Hash_ring.reassign t.ring ~slot ~to_;
      t.migration <- None;
      t.migrated <- t.migrated + !moved;
      t.rebalanced <- t.rebalanced + 1;
      note ~now:(Lf_svc.Clock.now t.clock)
        "%s slot=%d shard %d -> %d end moved=%d" label slot from to_ !moved;
      Condition.broadcast t.drained;
      Mutex.unlock t.mu;
      ok := true;
      !moved

let rebalance t ~slot ~to_ ~key_range =
  let copy_key k =
    (* [from] is fixed for the migration's lifetime; reading the owner
       per key would chase the post-flip assignment. *)
    let src =
      match t.migration with
      | Some m -> t.shards.(m.m_from).backend
      | None -> assert false
    in
    let dst = t.shards.(to_).backend in
    match src.find k with
    | None -> false
    | Some v ->
        ignore (dst.insert k v);
        ignore (src.delete k);
        true
  in
  migrate t ~label:"rebalance" ~slot ~to_ ~key_range ~copy_key

(* Promote a slot's replica: make the copy authoritative on its host
   shard.  Unlike [rebalance], the source of truth is the replica store
   when the primary is dead — the primary is still consulted first,
   per key, because an alive-but-sick primary may hold writes newer
   than the drained journal; only when it throws does the copy answer.
   The source delete is best-effort (a dead primary cannot honour it;
   whatever it still holds is unreachable once ownership flips). *)
let promote t ~slot ~key_range =
  match t.replicas with
  | None -> invalid_arg "Router.promote: no replicas attached"
  | Some reps -> (
      match Replica.host reps ~slot with
      | None -> invalid_arg "Router.promote: slot not replicated"
      | Some to_ ->
          (* Promotion barrier: the copy reflects every recorded write
             before any of it becomes authoritative. *)
          ignore (Replica.drain reps ~slot);
          let copy_key k =
            let src =
              match t.migration with
              | Some m -> t.shards.(m.m_from).backend
              | None -> assert false
            in
            let dst = t.shards.(to_).backend in
            let v =
              match src.find k with
              | v -> v
              | exception _ -> Replica.peek reps ~slot ~key:k
            in
            match v with
            | None -> false
            | Some v ->
                ignore (dst.insert k v);
                (try ignore (src.delete k) with _ -> ());
                true
          in
          let moved = migrate t ~label:"promote" ~slot ~to_ ~key_range ~copy_key in
          Replica.remove_slot reps ~slot;
          Mutex.lock t.mu;
          t.promotions <- t.promotions + 1;
          Mutex.unlock t.mu;
          moved)

let stats t = Array.map (fun sh -> Svc.stats sh.svc) t.shards

let hedged t =
  Mutex.lock t.mu;
  let a = Array.map (fun sh -> sh.hedged) t.shards in
  Mutex.unlock t.mu;
  a

let hedge_stats t =
  Mutex.lock t.mu;
  let a = Array.map (fun sh -> (sh.hedged, sh.hedge_wins)) t.shards in
  Mutex.unlock t.mu;
  a

let migrated_keys t = t.migrated
let rebalances t = t.rebalanced

let drained_keys t =
  Mutex.lock t.mu;
  let n = t.drained_keys in
  Mutex.unlock t.mu;
  n

let aborts t =
  Mutex.lock t.mu;
  let n = t.aborts in
  Mutex.unlock t.mu;
  n

let promotions t =
  Mutex.lock t.mu;
  let n = t.promotions in
  Mutex.unlock t.mu;
  n

let stale_reads t =
  Mutex.lock t.mu;
  let n = t.stale_reads in
  Mutex.unlock t.mu;
  n

type migration_status = {
  ms_slot : int;
  ms_from : int;
  ms_to : int;
  ms_watermark : int;
  ms_aborted : bool;
}

let migration_status t =
  Mutex.lock t.mu;
  let s =
    Option.map
      (fun m ->
        {
          ms_slot = m.m_slot;
          ms_from = m.m_from;
          ms_to = m.m_to;
          ms_watermark = m.m_watermark;
          ms_aborted = m.m_aborted;
        })
      t.migration
  in
  Mutex.unlock t.mu;
  s

(* Slot ownership as the supervisor sees it: the assignment, with the
   in-flight migration's destination substituted so a healing move is
   not planned twice. *)
let slots_of_shard t =
  Mutex.lock t.mu;
  let assignment = Hash_ring.assignment t.ring in
  (match t.migration with
  | Some m when not m.m_aborted -> assignment.(m.m_slot) <- m.m_to
  | _ -> ());
  Mutex.unlock t.mu;
  let counts = Array.make (Array.length t.shards) 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) assignment;
  counts
