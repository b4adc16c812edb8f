(* Request tracing (DESIGN.md §14).  Stateless: a context is an
   immutable handle, and every open, close and event is one record in
   the recorder's per-domain ring.  Trees are a view, rebuilt from the
   rings by [trees] at collection, so [Recorder.reset] is the one reset.

   One switch: spans open only while [Recorder.level () = Tracing].
   [root] reads that level and returns [Nil] below it, and every other
   entry point dispatches on the context it is handed, so the untraced
   path does no DLS lookup and allocates nothing.

   Determinism: span ids are [(domain id << 40) | per-domain counter]
   ([Recorder.span_id]), so a single-domain run under the simulator or
   a manual clock allocates the same ids in the same order every
   execution, and with ticks coming from the deterministic clock seam
   the whole dump is byte-identical across runs (the exp24 replay
   check).  Multi-domain runs keep ids collision-free but not stable —
   the id uniqueness test covers that half. *)

type event = Obs_event.span_event =
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

type ctx = Nil | C of { trace : int; id : int; since : int }

let nil = Nil
let active = function Nil -> false | C _ -> true
let trace_id = function C { trace; _ } -> trace | Nil -> 0

(* ------------------------------------------------------------------ *)
(* Hot path *)

let open_span ~id ~trace ~parent ~name ~now =
  Recorder.push_request ~now (Obs_event.Req_begin { trace; id; parent; name });
  C { trace; id; since = now }

let root ~name ~now =
  match Recorder.level () with
  | Recorder.(Off | Counters | Histograms) -> Nil
  | Recorder.Tracing ->
      let id = Recorder.span_id () in
      open_span ~id ~trace:id ~parent:0 ~name ~now

let begin_ ctx ~name ~now =
  match ctx with
  | Nil -> Nil
  | C { trace; id = parent; _ } ->
      open_span ~id:(Recorder.span_id ()) ~trace ~parent ~name ~now

let end_ ctx ~now ~ok =
  match ctx with
  | Nil -> ()
  | C { trace; id; since } ->
      Recorder.push_request ~now (Obs_event.Req_end { id; ok });
      if id = trace then
        Recorder.complete_request ~trace ~latency:(now - since) ~tick:now

let event ctx ~now ev =
  match ctx with
  | Nil -> ()
  | C { id; _ } -> Recorder.push_request ~now (Obs_event.Req_event { id; ev })

(* ------------------------------------------------------------------ *)
(* Trees: accessors and analysis *)

type span = {
  s_trace : int;
  s_id : int;
  s_parent : int;
  s_name : string;
  s_begin : int;
  mutable s_end : int;  (* [still_open] until its end record is read *)
  mutable s_ok : bool;
  mutable s_events : (int * event) list;  (* newest first *)
}

type tree = {
  t_trace : int;
  t_root : span;
  t_spans : span list;  (* completed non-root spans, by (begin, id) *)
}

let tree_trace t = t.t_trace
let tree_root t = t.t_root
let tree_spans t = t.t_root :: t.t_spans
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
    t.t_spans;
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt child_time s.s_id) ~default:0 in
      let self = max 0 (duration s - kids) in
      let cur = Option.value (Hashtbl.find_opt by_name s.s_name) ~default:0 in
      Hashtbl.replace by_name s.s_name (cur + self))
    t.t_spans;
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
(* Collection: trees rebuilt from the rings *)

(* Completed roots kept per domain, the domain that closed them. *)
let flight_capacity = 256
let still_open = min_int

let trees () =
  let rings = Recorder.rings () in
  (* Every retained begin, from every domain: a span's end and events
     may sit in another domain's ring than its begin. *)
  let spans = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (e : Obs_event.t) ->
         match e.kind with
         | Obs_event.Req_begin { trace; id; parent; name } ->
             Hashtbl.replace spans id
               {
                 s_trace = trace;
                 s_id = id;
                 s_parent = parent;
                 s_name = name;
                 s_begin = e.ts;
                 s_end = still_open;
                 s_ok = true;
                 s_events = [];
               }
         | _ -> ()))
    rings;
  let add id ev =
    Option.iter (fun s -> s.s_events <- ev :: s.s_events) (Hashtbl.find_opt spans id)
  in
  (* Walk each ring in sequence order, keeping the open spans of each
     lane innermost first: a failed C&S lands in the innermost request
     span open on its lane. *)
  let roots =
    List.concat_map
      (fun ring ->
        let lanes = Hashtbl.create 8 in
        let open_on lane = Option.value (Hashtbl.find_opt lanes lane) ~default:[] in
        let closed = ref [] in
        List.iter
          (fun (e : Obs_event.t) ->
            match e.kind with
            | Obs_event.Req_begin { id; _ } ->
                Hashtbl.replace lanes e.lane (id :: open_on e.lane)
            | Obs_event.Req_end { id; ok } -> (
                Hashtbl.replace lanes e.lane
                  (List.filter (fun i -> i <> id) (open_on e.lane));
                match Hashtbl.find_opt spans id with
                | Some s ->
                    s.s_end <- e.ts;
                    s.s_ok <- ok;
                    if s.s_parent = 0 then closed := s :: !closed
                | None -> ())
            | Obs_event.Req_event { id; ev } -> add id (e.ts, ev)
            | Obs_event.Cas { cas; ok = false } -> (
                match open_on e.lane with
                | id :: _ -> add id (e.ts, Cas_fail cas)
                | [] -> ())
            | _ -> ())
          ring;
        List.filteri (fun i _ -> i < flight_capacity) !closed)
      rings
  in
  let kids = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ s ->
      if s.s_parent <> 0 && s.s_end <> still_open then Hashtbl.add kids s.s_trace s)
    spans;
  let by_begin a b =
    match Int.compare a.s_begin b.s_begin with
    | 0 -> Int.compare a.s_id b.s_id
    | c -> c
  in
  List.map
    (fun r ->
      {
        t_trace = r.s_trace;
        t_root = r;
        t_spans = List.sort by_begin (Hashtbl.find_all kids r.s_trace);
      })
    roots
  |> List.sort (fun a b -> Int.compare a.t_trace b.t_trace)

let find_trace tr = List.find_opt (fun t -> t.t_trace = tr) (trees ())
