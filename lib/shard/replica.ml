(* Lagged read replicas for designated slots.  One mutex guards every
   replica's journal, copy and counters — the same synchronization shape
   as the router: short critical sections.  Each slot's copy is an
   ordered map owned by this module (it is never a shard backend), so
   holding the mutex across an apply serializes appliers without
   blocking the data plane.

   The staleness contract lives here: a replica read reports how far
   the copy trails the primary as [lag = now - oldest pending entry's
   record tick] (0 when the journal is drained).  Readers must surface
   that lag explicitly — the router turns it into [Served_stale], never
   a bare [Served]. *)

module Int_map = Map.Make (Int)

type op = Put of int * int | Del of int

type entry = { e_tick : int; e_op : op }

type slot_rep = {
  sr_slot : int;
  sr_on : int;  (* shard hosting the copy: the promotion target *)
  mutable sr_copy : int Int_map.t;
  sr_journal : entry Queue.t;
  mutable sr_recorded : int;
  mutable sr_applied : int;
}

type t = {
  mu : Mutex.t;
  slots : (int, slot_rep) Hashtbl.t;
  mutable reads : int;  (* failover reads answered (all stale-tagged) *)
}

let create () = { mu = Mutex.create (); slots = Hashtbl.create 8; reads = 0 }

let add_slot t ~slot ~on =
  Mutex.lock t.mu;
  if Hashtbl.mem t.slots slot then begin
    Mutex.unlock t.mu;
    invalid_arg "Replica.add_slot: slot already replicated"
  end;
  Hashtbl.replace t.slots slot
    {
      sr_slot = slot;
      sr_on = on;
      sr_copy = Int_map.empty;
      sr_journal = Queue.create ();
      sr_recorded = 0;
      sr_applied = 0;
    };
  Mutex.unlock t.mu

let host t ~slot =
  Mutex.lock t.mu;
  let h = Option.map (fun sr -> sr.sr_on) (Hashtbl.find_opt t.slots slot) in
  Mutex.unlock t.mu;
  h

let replicated t ~slot = host t ~slot <> None

let record t ~slot ~now op =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.slots slot with
  | None -> ()
  | Some sr ->
      Queue.push { e_tick = now; e_op = op } sr.sr_journal;
      sr.sr_recorded <- sr.sr_recorded + 1);
  Mutex.unlock t.mu

(* Applying an entry re-runs the write against the copy the way the
   dictionaries' INSERT and DELETE run it: a present key keeps its
   value.  Both are idempotent, so a crash between apply and the counter
   bump costs nothing on replay. *)
let apply_entry sr e =
  (sr.sr_copy <-
     match e.e_op with
     | Put (k, v) ->
         Int_map.update k (function None -> Some v | kept -> kept) sr.sr_copy
     | Del k -> Int_map.remove k sr.sr_copy);
  sr.sr_applied <- sr.sr_applied + 1

let apply ?(budget = max_int) t =
  Mutex.lock t.mu;
  let applied = ref 0 in
  Hashtbl.iter
    (fun _ sr ->
      while !applied < budget && not (Queue.is_empty sr.sr_journal) do
        apply_entry sr (Queue.pop sr.sr_journal);
        incr applied
      done)
    t.slots;
  Mutex.unlock t.mu;
  !applied

let drain t ~slot =
  Mutex.lock t.mu;
  let applied = ref 0 in
  (match Hashtbl.find_opt t.slots slot with
  | None -> ()
  | Some sr ->
      while not (Queue.is_empty sr.sr_journal) do
        apply_entry sr (Queue.pop sr.sr_journal);
        incr applied
      done);
  Mutex.unlock t.mu;
  !applied

let lag_locked sr ~now =
  match Queue.peek_opt sr.sr_journal with
  | None -> 0
  | Some e -> max 0 (now - e.e_tick)

let read t ~slot ~key ~now =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.slots slot with
  | None ->
      Mutex.unlock t.mu;
      None
  | Some sr ->
      t.reads <- t.reads + 1;
      let lag = lag_locked sr ~now in
      (* The copy is read under the mutex so it cannot race an
         applier past the lag we just computed: the value served is at
         most [lag] ticks behind the primary's journal. *)
      let v = Int_map.find_opt key sr.sr_copy in
      Mutex.unlock t.mu;
      Some (v, lag)

(* Control-plane reads of the copy (promotion), not failover serves:
   they bypass the read counter and report no lag. *)
let peek t ~slot ~key =
  Mutex.lock t.mu;
  let v =
    match Hashtbl.find_opt t.slots slot with
    | None -> None
    | Some sr -> Int_map.find_opt key sr.sr_copy
  in
  Mutex.unlock t.mu;
  v

let next_key t ~slot k =
  Mutex.lock t.mu;
  let next =
    match Hashtbl.find_opt t.slots slot with
    | None -> None
    | Some sr ->
        Option.map fst (Int_map.find_first_opt (fun j -> j >= k) sr.sr_copy)
  in
  Mutex.unlock t.mu;
  next

let remove_slot t ~slot =
  Mutex.lock t.mu;
  Hashtbl.remove t.slots slot;
  Mutex.unlock t.mu

type slot_stats = {
  s_slot : int;
  s_on : int;
  s_pending : int;
  s_applied : int;
  s_lag : int;
}

let stats t ~now =
  Mutex.lock t.mu;
  let out =
    Hashtbl.fold
      (fun _ sr acc ->
        {
          s_slot = sr.sr_slot;
          s_on = sr.sr_on;
          s_pending = Queue.length sr.sr_journal;
          s_applied = sr.sr_applied;
          s_lag = lag_locked sr ~now;
        }
        :: acc)
      t.slots []
  in
  Mutex.unlock t.mu;
  List.sort (fun a b -> Int.compare a.s_slot b.s_slot) out

let reads t =
  Mutex.lock t.mu;
  let n = t.reads in
  Mutex.unlock t.mu;
  n
