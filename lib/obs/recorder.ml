(* The observability recorder: module-level, like [Check_mem]'s tables and
   [Fault_mem]'s installed plan, so one [Trace_mem.Make (M)] instantiation
   observes every structure stacked on it without threading state through
   the functors.

   Hot-path discipline.  Every recording entry point first reads the level
   word; at [Off] it returns immediately — no domain-local lookup, no
   allocation (the overhead smoke test in test_obs checks this with
   [Gc.minor_words]).  Above [Off], each domain records into its own
   [dstate] obtained via [Domain.DLS] and registered in a lock-free list
   (the [Counting_mem] pattern), so recording never synchronizes with
   other domains.  Collection ([tallies], [latencies], [events], ...)
   merges the registry and is only meaningful at quiescence, after worker
   domains have been joined.

   Levels nest: [Counters] tallies accesses and finished operations;
   [Histograms] additionally times operation spans and attributes failed
   C&S to phase and key; [Tracing] additionally records the event stream
   into per-domain bounded rings (oldest events overwritten, drops
   counted).  The level is the process's one observability switch: the
   request tracer reads it too, and opens request spans only at
   [Tracing].  Their begin, end and event records go into the same ring,
   so each domain's ring is the one store of a trace: [Span.trees]
   rebuilds request trees from [rings], and [reset] is the one reset.

   Lanes vs domains: under the deterministic simulator many simulated
   processes share one domain, so the per-domain span state is a pair
   of slot arrays indexed by lane ([Sim.running_pid], falling back to
   [Lf_kernel.Lane] on real domains) — the same identification
   [Fault_mem] uses.  Lanes are small integers, so the arrays grow to
   the largest lane seen and a span pair allocates nothing. *)

module Ev = Lf_kernel.Mem_event
module C = Lf_kernel.Counters

type level = Off | Counters | Histograms | Tracing

let rank = function Off -> 0 | Counters -> 1 | Histograms -> 2 | Tracing -> 3

let level_to_string = function
  | Off -> "off"
  | Counters -> "counters"
  | Histograms -> "histograms"
  | Tracing -> "tracing"

(* The level as an int: the single word the hot path reads first. *)
let lvl = ref 0
let set_level l = lvl := rank l

let level () =
  match !lvl with 0 -> Off | 1 -> Counters | 2 -> Histograms | _ -> Tracing

type clock = Clock.t = Real | Sim_steps | Manual of (unit -> int)

let clock = ref Real
let set_clock c = clock := c
let now () = Clock.now !clock

let default_ring_capacity = 65536
let ring_capacity = ref default_ring_capacity

let set_ring_capacity n =
  if n <= 0 then invalid_arg "Recorder.set_ring_capacity: capacity must be > 0";
  ring_capacity := n

(* ------------------------------------------------------------------ *)
(* Per-domain state *)

(* A lane's start slot holds [closed] while it has no open span; a
   clock never reads [min_int]. *)
let closed = min_int

(* Tail-based exemplars: completed requests log-bucketed by latency,
   each bucket keeping the worst recent request that landed in it.
   Bucket [i] holds latencies in [(2^(i-1), 2^i - 1]]; bucket 0 holds
   <= 0. *)
type exemplar = {
  ex_le : int;
  ex_count : int;
  ex_trace : int;
  ex_latency : int;
  ex_tick : int;
}

let n_buckets = 63

let no_exemplars () =
  Array.init n_buckets (fun i ->
      {
        ex_le = (if i = 0 then 0 else (1 lsl i) - 1);
        ex_count = 0;
        ex_trace = 0;
        ex_latency = -1;
        ex_tick = 0;
      })

type dstate = {
  dom : int;
  tally : C.t;  (* access/cost-model tallies: the existing vocabulary *)
  ops_tally : int array;  (* finished operations, by Obs_event.op_index *)
  hist : Hist.t array;  (* span latencies, by Obs_event.op_index *)
  profile : Profile.t;
  mutable ring : Obs_event.t Ring.t;
  (* The open operation span of each lane, by [slot_of] the lane. *)
  mutable span_key : int array;
  mutable span_start : int array;
  mutable seq : int;  (* per-domain event sequence; breaks ts ties *)
  mutable span_ids : int;  (* request-span ids handed out *)
  mutable exemplars : exemplar array;  (* by [bucket_of] latency *)
  mutable lat_sum : int;  (* completed-request latencies *)
  mutable lat_count : int;
}

let registry : dstate list Atomic.t = Atomic.make []

let make_dstate () =
  {
    dom = (Domain.self () :> int);
    tally = C.create ();
    ops_tally = Array.make Obs_event.op_count 0;
    hist = Array.init Obs_event.op_count (fun _ -> Hist.create ());
    profile = Profile.create ();
    ring = Ring.create ~capacity:!ring_capacity Obs_event.dummy;
    span_key = Array.make 8 0;
    span_start = Array.make 8 closed;
    seq = 0;
    span_ids = 0;
    exemplars = no_exemplars ();
    lat_sum = 0;
    lat_count = 0;
  }

let register st =
  let rec add () =
    let old = Atomic.get registry in
    if not (Atomic.compare_and_set registry old (st :: old)) then add ()
  in
  add ()

let key =
  Domain.DLS.new_key (fun () ->
      let st = make_dstate () in
      register st;
      st)

let local () = Domain.DLS.get key

let lane () =
  match Lf_dsim.Sim.running_pid () with
  | Some p -> p
  | None -> Lf_kernel.Lane.get ()

let reset () =
  List.iter
    (fun st ->
      C.reset st.tally;
      Array.fill st.ops_tally 0 Obs_event.op_count 0;
      Array.iter Hist.clear st.hist;
      Profile.clear st.profile;
      st.ring <- Ring.create ~capacity:!ring_capacity Obs_event.dummy;
      Array.fill st.span_start 0 (Array.length st.span_start) closed;
      st.seq <- 0;
      st.span_ids <- 0;
      st.exemplars <- no_exemplars ();
      st.lat_sum <- 0;
      st.lat_count <- 0)
    (Atomic.get registry)

(* A lane's slot index: lanes are small and may be negative (a
   harness's coordinator runs as lane -1), so fold the sign into bit 0. *)
let slot_of lane = if lane >= 0 then lane lsl 1 else ((-lane) lsl 1) - 1

(* The slot of [lane], growing the arrays to hold it. *)
let slot st lane =
  let i = slot_of lane in
  let n = Array.length st.span_start in
  if i >= n then begin
    let n' = max (i + 1) (2 * n) in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    st.span_key <- grow st.span_key 0;
    st.span_start <- grow st.span_start closed
  end;
  i

(* ------------------------------------------------------------------ *)
(* Hot path *)

let push_at st ~ts kind =
  let s = st.seq in
  st.seq <- s + 1;
  Ring.push st.ring { Obs_event.ts; dom = st.dom; lane = lane (); seq = s; kind }

let push st kind = push_at st ~ts:(now ()) kind

(* Reads and writes are the one per-access cost that scales with traversal
   length: on a pointer-chasing search they outnumber C&S by orders of
   magnitude, and tallying each one (DLS lookup + store) costs more than
   the traversal step it observes.  So they are tallied only from
   [Histograms] up; the [Counters] level touches recorder state once per
   C&S / cost-model event / finished operation, which is what keeps it
   within a few percent of off (EXP-19 part A).  Exact read counts at
   minimal cost remain [Counting_mem]'s job. *)
let on_read () =
  if !lvl < 2 then ()
  else
    let st = local () in
    st.tally.C.reads <- st.tally.C.reads + 1

let on_write () =
  if !lvl < 2 then ()
  else
    let st = local () in
    st.tally.C.writes <- st.tally.C.writes + 1

let on_cas kind ok =
  if !lvl = 0 then ()
  else begin
    let st = local () in
    C.record_cas_attempt st.tally kind;
    if ok then C.record_cas_success st.tally kind
    else if !lvl >= 2 then begin
      (* Attribute the lost C&S to the operation that suffered it. *)
      let i = slot st (lane ()) in
      let key =
        if st.span_start.(i) = closed then Profile.no_key else st.span_key.(i)
      in
      Profile.record st.profile ~key kind
    end;
    if !lvl >= 3 then push st (Obs_event.Cas { cas = kind; ok })
  end

(* Same per-access-volume reasoning for the cost-model notes: the pointer
   and backlink traversal steps fire once per node visited, so they are
   tallied from [Histograms] up, while the once-per-incident notes
   (retries, helping entries, user marks) are cheap enough for
   [Counters]. *)
let on_event (e : Lf_kernel.Mem_event.t) =
  if !lvl = 0 then ()
  else begin
    let per_step =
      match e with
      | Backlink_step | Next_update | Curr_update | Aux_step -> true
      | Retry | Help | User _ -> false
    in
    if (not per_step) || !lvl >= 2 then begin
      let st = local () in
      C.record st.tally e;
      if !lvl >= 3 then push st (Obs_event.Note e)
    end
  end

let span_begin ~op ~key =
  if !lvl < 2 then ()
  else begin
    let st = local () in
    let i = slot st (lane ()) in
    st.span_key.(i) <- key;
    st.span_start.(i) <- now ();
    if !lvl >= 3 then push st (Obs_event.Span_begin { op; key })
  end

let span_end ~op ~ok =
  if !lvl = 0 then ()
  else begin
    let st = local () in
    let i = Obs_event.op_index op in
    st.ops_tally.(i) <- st.ops_tally.(i) + 1;
    if !lvl >= 2 then begin
      let j = slot st (lane ()) in
      let start = st.span_start.(j) in
      if start <> closed then begin
        st.span_start.(j) <- closed;
        Hist.add st.hist.(i) (now () - start)
      end;
      if !lvl >= 3 then push st (Obs_event.Span_end { op; ok })
    end
  end

(* Request spans.  A live [Span] context is the gate, so these do not
   read the level: a span opened at [Tracing] records its end even if
   the level dropped in between. *)

let span_id () =
  let st = local () in
  st.span_ids <- st.span_ids + 1;
  (st.dom lsl 40) lor st.span_ids

let push_request ~now kind = push_at (local ()) ~ts:now kind

(* The bit length of [latency], capped at the last bucket. *)
let rec bucket_of latency =
  if latency <= 0 then 0 else min (n_buckets - 1) (1 + bucket_of (latency lsr 1))

let complete_request ~trace ~latency ~tick =
  let st = local () in
  let i = bucket_of latency in
  let e = st.exemplars.(i) in
  let e = { e with ex_count = e.ex_count + 1 } in
  st.exemplars.(i) <-
    (if latency >= e.ex_latency then
       { e with ex_trace = trace; ex_latency = latency; ex_tick = tick }
     else e);
  st.lat_sum <- st.lat_sum + latency;
  st.lat_count <- st.lat_count + 1

(* ------------------------------------------------------------------ *)
(* Collection (at quiescence) *)

let states () = Atomic.get registry

let tallies () =
  let total = C.create () in
  List.iter (fun st -> C.add_into ~into:total st.tally) (states ());
  total

let ops_counts () =
  let out = Array.make Obs_event.op_count 0 in
  List.iter
    (fun st ->
      Array.iteri (fun i v -> out.(i) <- out.(i) + v) st.ops_tally)
    (states ());
  List.map (fun op -> (op, out.(Obs_event.op_index op))) Obs_event.ops

let latency op =
  let i = Obs_event.op_index op in
  let h = Hist.create () in
  List.iter (fun st -> Hist.merge_into ~into:h st.hist.(i)) (states ());
  h

let latencies () = List.map (fun op -> (op, latency op)) Obs_event.ops

let profile () =
  let p = Profile.create () in
  List.iter (fun st -> Profile.merge_into ~into:p st.profile) (states ());
  p

let profile_report ?top () = Profile.report ?top (profile ())

let dropped () =
  List.fold_left (fun acc st -> acc + Ring.dropped st.ring) 0 (states ())

let events () =
  let all =
    List.concat_map (fun st -> Ring.to_list st.ring) (states ())
  in
  List.stable_sort
    (fun (a : Obs_event.t) (b : Obs_event.t) ->
      match Int.compare a.ts b.ts with
      | 0 -> (
          match Int.compare a.dom b.dom with
          | 0 -> Int.compare a.seq b.seq
          | c -> c)
      | c -> c)
    all

let event_count () =
  List.fold_left (fun acc st -> acc + Ring.length st.ring) 0 (states ())

(* Each domain's retained events in ring order, domains by id. *)
let rings () =
  List.sort (fun a b -> Int.compare a.dom b.dom) (states ())
  |> List.map (fun st -> Ring.to_list st.ring)

(* Buckets merge like the histograms: counts add, and the worst latency
   wins, ties going to the later tick. *)
let merge_exemplar a b =
  let worst =
    if b.ex_latency > a.ex_latency || (b.ex_latency = a.ex_latency && b.ex_tick > a.ex_tick)
    then b
    else a
  in
  { worst with ex_count = a.ex_count + b.ex_count }

let exemplars () =
  let merged = no_exemplars () in
  List.iter
    (fun st ->
      Array.iteri (fun i e -> merged.(i) <- merge_exemplar merged.(i) e) st.exemplars)
    (states ());
  List.filter (fun e -> e.ex_count > 0) (Array.to_list merged)

let latency_totals () =
  List.fold_left
    (fun (sum, count) st -> (sum + st.lat_sum, count + st.lat_count))
    (0, 0) (states ())
