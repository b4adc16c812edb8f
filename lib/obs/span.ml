(* Request tracing (DESIGN.md §14).  Module-level like [Recorder], so
   one serve process traces every pipeline without threading recorder
   state through the layers; the request context itself is explicit.

   One switch: trees build only while [Recorder.level () = Tracing].
   [root] reads that level and returns [Nil] below it, and every other
   entry point dispatches on the context it is handed, so the untraced
   path does no DLS lookup and allocates nothing.  When tracing, each
   domain records into its own [dstate] (ids, tallies, flight ring,
   per-lane current-span table) so tracing never synchronizes with
   other domains except at two cold points: the registry (locked once
   per domain at registration and at collection) and the exemplar table
   (locked once per {e completed request}, not per span).

   Determinism: span ids are [(domain id << 40) | per-domain counter],
   so a single-domain run under the simulator or a manual clock
   allocates the same ids in the same order every execution, and with
   ticks coming from the deterministic clock seam the whole dump is
   byte-identical across runs (the exp24 replay check).  Multi-domain
   runs keep ids collision-free but not stable — the id uniqueness
   qcheck covers that half. *)

type event =
  | Deadline_check of bool
  | Shed_verdict of string
  | Breaker_verdict of string
  | Degrade_mode of string
  | Retry_wait of { attempt : int; delay : int }
  | Budget_denied
  | Hedge_outcome of string
  | Drain_wait of int
  | Op of Obs_event.op * int
  | Cas_fail of Lf_kernel.Mem_event.cas_kind
  | Note of string

let event_strings = function
  | Deadline_check expired ->
      ("deadline-check", if expired then "expired" else "live")
  | Shed_verdict v -> ("shed", v)
  | Breaker_verdict v -> ("breaker", v)
  | Degrade_mode m -> ("degrade", m)
  | Retry_wait { attempt; delay } ->
      ("retry", Printf.sprintf "attempt=%d delay=%d" attempt delay)
  | Budget_denied -> ("budget-denied", "")
  | Hedge_outcome v -> ("hedge", v)
  | Drain_wait k -> ("drain-wait", string_of_int k)
  | Op (op, k) -> ("op", Printf.sprintf "%s %d" (Obs_event.op_to_string op) k)
  | Cas_fail k -> ("cas-fail", Lf_kernel.Mem_event.cas_kind_to_string k)
  | Note s -> ("note", s)

type span = {
  s_trace : int;
  s_id : int;
  s_parent : int;
  s_name : string;
  s_begin : int;
  mutable s_end : int;
  mutable s_ok : bool;
  mutable s_events : (int * event) list;
}

type tree = {
  t_trace : int;
  t_root : span;
  mutable t_closed : span list;  (* completed non-root spans, newest first *)
}

type ctx = Nil | C of { tree : tree; span : span }

let nil = Nil
let active = function Nil -> false | C _ -> true
let trace_id = function C { tree; _ } -> tree.t_trace | Nil -> 0

(* ------------------------------------------------------------------ *)
(* Per-domain state *)

type dstate = {
  dom : int;
  mutable next : int;  (* per-domain id counter *)
  mutable flight : tree Ring.t;  (* completed trees, oldest overwritten *)
  current : (int, span) Hashtbl.t;  (* lane -> executing span (attribution) *)
  mutable c_roots : int;
  mutable c_spans : int;
  mutable c_events : int;
  mutable c_completed : int;
  mutable c_cas_attr : int;
}

let dummy_span =
  {
    s_trace = 0;
    s_id = 0;
    s_parent = 0;
    s_name = "";
    s_begin = 0;
    s_end = 0;
    s_ok = true;
    s_events = [];
  }

let dummy_tree = { t_trace = 0; t_root = dummy_span; t_closed = [] }

(* One mutex covers the cold shared state: the registry and the
   exemplar table.  Never taken per span — only per domain registration,
   per completed request, and at collection. *)
let mu = Mutex.create ()
let registry : dstate list ref = ref []

(* Completed trees kept per domain. *)
let flight_capacity = 256

(* ------------------------------------------------------------------ *)
(* Tail-based exemplars: log-bucketed by latency, each bucket keeping
   the trace id of the worst recent request that landed in it.  Bucket
   [i] holds latencies in [(2^(i-1), 2^i - 1]]; bucket 0 holds <= 0. *)

type slot = {
  mutable sl_count : int;
  mutable sl_trace : int;
  mutable sl_lat : int;
  mutable sl_tick : int;
}

type exemplar = {
  ex_le : int;
  ex_count : int;
  ex_trace : int;
  ex_latency : int;
  ex_tick : int;
}

let n_slots = 63
let slots = Array.init n_slots (fun _ ->
    { sl_count = 0; sl_trace = 0; sl_lat = -1; sl_tick = 0 })
let lat_sum = ref 0
let lat_count = ref 0

let bucket_of latency =
  if latency <= 0 then 0
  else begin
    let v = ref latency and b = ref 0 in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    min !b (n_slots - 1)
  end

let bucket_le i = if i = 0 then 0 else (1 lsl i) - 1

(* Under [mu]; once per completed request. *)
let observe_completed_locked ~trace ~latency ~tick =
  let s = slots.(bucket_of latency) in
  s.sl_count <- s.sl_count + 1;
  if latency >= s.sl_lat then begin
    s.sl_trace <- trace;
    s.sl_lat <- latency;
    s.sl_tick <- tick
  end;
  lat_sum := !lat_sum + latency;
  incr lat_count

let exemplars () =
  Mutex.lock mu;
  let out = ref [] in
  for i = n_slots - 1 downto 0 do
    let s = slots.(i) in
    if s.sl_count > 0 then
      out :=
        {
          ex_le = bucket_le i;
          ex_count = s.sl_count;
          ex_trace = s.sl_trace;
          ex_latency = s.sl_lat;
          ex_tick = s.sl_tick;
        }
        :: !out
  done;
  Mutex.unlock mu;
  !out

let latency_totals () =
  Mutex.lock mu;
  let r = (!lat_sum, !lat_count) in
  Mutex.unlock mu;
  r

(* ------------------------------------------------------------------ *)
(* DLS plumbing (the [Recorder] pattern; raw-dls lint waiver) *)

let make_dstate () =
  {
    dom = (Domain.self () :> int);
    next = 0;
    flight = Ring.create ~capacity:flight_capacity dummy_tree;
    current = Hashtbl.create 8;
    c_roots = 0;
    c_spans = 0;
    c_events = 0;
    c_completed = 0;
    c_cas_attr = 0;
  }

let register st =
  Mutex.lock mu;
  registry := st :: !registry;
  Mutex.unlock mu

let key =
  Domain.DLS.new_key (fun () ->
      let st = make_dstate () in
      register st;
      st)

let local () = Domain.DLS.get key

let reset () =
  Mutex.lock mu;
  List.iter
    (fun st ->
      st.next <- 0;
      st.flight <- Ring.create ~capacity:flight_capacity dummy_tree;
      Hashtbl.reset st.current;
      st.c_roots <- 0;
      st.c_spans <- 0;
      st.c_events <- 0;
      st.c_completed <- 0;
      st.c_cas_attr <- 0)
    !registry;
  Array.iter
    (fun s ->
      s.sl_count <- 0;
      s.sl_trace <- 0;
      s.sl_lat <- -1;
      s.sl_tick <- 0)
    slots;
  lat_sum := 0;
  lat_count := 0;
  Mutex.unlock mu

(* ------------------------------------------------------------------ *)
(* Hot path *)

let fresh st =
  st.next <- st.next + 1;
  (st.dom lsl 40) lor st.next

let root ~name ~now =
  match Recorder.level () with
  | Recorder.(Off | Counters | Histograms) -> Nil
  | Recorder.Tracing ->
      let st = local () in
      st.c_roots <- st.c_roots + 1;
      let id = fresh st in
      let sp =
        {
          s_trace = id;
          s_id = id;
          s_parent = 0;
          s_name = name;
          s_begin = now;
          s_end = -1;
          s_ok = true;
          s_events = [];
        }
      in
      C { tree = { t_trace = id; t_root = sp; t_closed = [] }; span = sp }

let begin_ ctx ~name ~now =
  match ctx with
  | Nil -> Nil
  | C { tree; span = parent } ->
      let st = local () in
      st.c_spans <- st.c_spans + 1;
      let sp =
        {
          s_trace = tree.t_trace;
          s_id = fresh st;
          s_parent = parent.s_id;
          s_name = name;
          s_begin = now;
          s_end = -1;
          s_ok = true;
          s_events = [];
        }
      in
      C { tree; span = sp }

let complete st tree =
  st.c_completed <- st.c_completed + 1;
  Ring.push st.flight tree;
  let r = tree.t_root in
  Mutex.lock mu;
  observe_completed_locked ~trace:tree.t_trace ~latency:(r.s_end - r.s_begin)
    ~tick:r.s_end;
  Mutex.unlock mu

let end_ ctx ~now ~ok =
  match ctx with
  | Nil -> ()
  | C { tree; span } ->
      span.s_end <- now;
      span.s_ok <- ok;
      if span.s_id == tree.t_root.s_id then complete (local ()) tree
      else tree.t_closed <- span :: tree.t_closed

let record st span ~now e =
  st.c_events <- st.c_events + 1;
  span.s_events <- (now, e) :: span.s_events

let event ctx ~now e =
  match ctx with Nil -> () | C { span; _ } -> record (local ()) span ~now e

let with_current ctx f =
  match ctx with
  | Nil -> f ()
  | C { span; _ } ->
      let st = local () in
      let ln = Recorder.lane () in
      let prev = Hashtbl.find_opt st.current ln in
      Hashtbl.replace st.current ln span;
      Fun.protect
        ~finally:(fun () ->
          match prev with
          | Some p -> Hashtbl.replace st.current ln p
          | None -> Hashtbl.remove st.current ln)
        f

let note_cas_fail kind =
  match Recorder.level () with
  | Recorder.(Off | Counters | Histograms) -> ()
  | Recorder.Tracing -> (
      let st = local () in
      match Hashtbl.find_opt st.current (Recorder.lane ()) with
      | Some span ->
          st.c_cas_attr <- st.c_cas_attr + 1;
          record st span ~now:(Recorder.now ()) (Cas_fail kind)
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Trees: accessors and analysis (collection at quiescence) *)

let tree_trace t = t.t_trace
let tree_root t = t.t_root

let tree_spans t =
  t.t_root
  :: List.sort
       (fun a b ->
         match Int.compare a.s_begin b.s_begin with
         | 0 -> Int.compare a.s_id b.s_id
         | c -> c)
       t.t_closed

let span_events s = List.rev s.s_events
let duration s = if s.s_end < s.s_begin then 0 else s.s_end - s.s_begin

let dominant_phase t =
  (* Self time: a span's duration minus its direct children's, so a
     shard fan-out containing its attempts is not double-counted. *)
  let child_time = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let d = duration s in
      let cur =
        Option.value (Hashtbl.find_opt child_time s.s_parent) ~default:0
      in
      Hashtbl.replace child_time s.s_parent (cur + d))
    t.t_closed;
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt child_time s.s_id) ~default:0 in
      let self = max 0 (duration s - kids) in
      let cur = Option.value (Hashtbl.find_opt by_name s.s_name) ~default:0 in
      Hashtbl.replace by_name s.s_name (cur + self))
    t.t_closed;
  (* Deterministic argmax: largest self time, ties lexicographically. *)
  let best =
    Hashtbl.fold
      (fun name d acc ->
        match acc with
        | Some (bn, bd) when bd > d || (bd = d && bn <= name) -> acc
        | _ -> Some (name, d))
      by_name None
  in
  match best with None -> t.t_root.s_name | Some (n, _) -> n

let well_formed t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let spans = tree_spans t in
  let byid = Hashtbl.create 16 in
  let rec index = function
    | [] -> Ok ()
    | s :: rest ->
        if Hashtbl.mem byid s.s_id then err "duplicate span id %d" s.s_id
        else begin
          Hashtbl.add byid s.s_id s;
          index rest
        end
  in
  let check s =
    if s.s_trace <> t.t_trace then
      err "span %d belongs to trace %d, not %d" s.s_id s.s_trace t.t_trace
    else if s.s_end < s.s_begin then
      err "span %d closes at %d before opening at %d" s.s_id s.s_end s.s_begin
    else if s.s_id = t.t_root.s_id then Ok ()
    else
      match Hashtbl.find_opt byid s.s_parent with
      | None -> err "span %d has unknown parent %d" s.s_id s.s_parent
      | Some p ->
          if s.s_begin < p.s_begin || s.s_end > p.s_end then
            err "span %d [%d,%d] escapes parent %d [%d,%d]" s.s_id s.s_begin
              s.s_end p.s_id p.s_begin p.s_end
          else Ok ()
  in
  match index spans with
  | Error _ as e -> e
  | Ok () ->
      List.fold_left
        (fun acc s -> match acc with Error _ -> acc | Ok () -> check s)
        (Ok ()) spans

(* ------------------------------------------------------------------ *)
(* Collection *)

let states () =
  Mutex.lock mu;
  let l = !registry in
  Mutex.unlock mu;
  l

let trees () =
  let all = List.concat_map (fun st -> Ring.to_list st.flight) (states ()) in
  List.sort (fun a b -> Int.compare a.t_trace b.t_trace) all

let find_trace tr = List.find_opt (fun t -> t.t_trace = tr) (trees ())

type counts = {
  roots : int;
  spans : int;
  events : int;
  completed : int;
  cas_attributed : int;
}

let counts () =
  List.fold_left
    (fun acc st ->
      {
        roots = acc.roots + st.c_roots;
        spans = acc.spans + st.c_spans;
        events = acc.events + st.c_events;
        completed = acc.completed + st.c_completed;
        cas_attributed = acc.cas_attributed + st.c_cas_attr;
      })
    { roots = 0; spans = 0; events = 0; completed = 0; cas_attributed = 0 }
    (states ())
