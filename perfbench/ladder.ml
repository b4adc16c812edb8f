(* The traced run's per-layer attribution: replay the lines a socket run
   sent, in process, on a ladder of rungs.  Each rung adds one layer of
   the stack built the way [lfdict serve] builds it (bin/lfdict.ml), and
   a layer's self cost is its rung minus the rung below.  Every number is
   taken from outside, by timing the call into the rung's top public
   function; nothing inside lib/ or bin/ is instrumented.

   The stack is a copy of the server's construction, not a call into it:
   the server lives in the CLI binary, so this file must follow any
   change to how bin/lfdict.ml builds [serve]. *)

module Svc = Lf_svc.Svc
module Router = Lf_shard.Router
module D = Lf_skiplist.Fr_skiplist.Atomic_int

module Counted =
  Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_kernel.Counting_mem)

let now_ns = Calib.now_ns

(* ---- Sampled spans ---- *)

(* Spans for one line in 64 at the top rung, one per layer boundary the
   ladder can see from outside (line, wire.parse, router, recorder,
   fr_skiplist, wire.format), each with its parent's id.  Kept in
   preallocated arrays and written out as Chrome trace JSON at the end. *)
module Spans = struct
  let cap = 1 lsl 16
  let sampling = ref false
  let phase = Bytes.create cap
  let names = Array.make cap ""
  let ts = Array.make cap 0
  let ids = Array.make cap 0
  let parents = Array.make cap 0
  let n = ref 0
  let stack = Array.make 16 0
  let depth = ref 0
  let next_id = ref 1

  (* Room for the events of one more sampled line: a 16-key line logs 72. *)
  let full () = !n + 128 > cap

  let push ph name id parent =
    let i = !n in
    Bytes.set phase i ph;
    names.(i) <- name;
    ts.(i) <- now_ns ();
    ids.(i) <- id;
    parents.(i) <- parent;
    n := i + 1

  let begin_ name =
    let id = !next_id in
    incr next_id;
    push 'B' name id (if !depth = 0 then 0 else stack.(!depth - 1));
    stack.(!depth) <- id;
    incr depth

  let end_ name =
    decr depth;
    push 'E' name stack.(!depth) 0

  let to_chrome ~title =
    let b = Buffer.create (!n * 96) in
    Buffer.add_string b "{\"traceEvents\":[";
    Printf.bprintf b
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":%S}}"
      title;
    let t0 = if !n > 0 then ts.(0) else 0 in
    for i = 0 to !n - 1 do
      let ph = Bytes.get phase i in
      Printf.bprintf b
        ",\n{\"name\":%S,\"cat\":\"layer\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":1"
        names.(i) ph
        (float_of_int (ts.(i) - t0) /. 1e3);
      if ph = 'B' then
        Printf.bprintf b ",\"args\":{\"id\":%d,\"parent\":%d}}" ids.(i) parents.(i)
      else Buffer.add_char b '}'
    done;
    Buffer.add_string b "]}\n";
    Buffer.contents b
end

(* ---- The stack, built the way bin/lfdict.ml builds serve ---- *)

let clock = Lf_svc.Clock.real ()
let ms = Lf_svc.Clock.ms clock

(* [serve] with no policy flags. *)
let base_config =
  Svc.config ~clock
    ~backoff:(fun d -> Unix.sleepf (float_of_int d /. 1e9))
    ()

(* What [--deadline-ms 100 --retry 3 --retry-budget 64 --shed 256
   --breaker] produce. *)
let serve_config =
  Svc.config ~clock ~deadline:(ms 100)
    ~retry:(Some (Lf_svc.Retry.policy ~max_attempts:3 ~base_delay:(ms 1) ()))
    ~budget:(Lf_svc.Retry.Budget.config ~capacity:64 ~refill_every:(ms 100) ())
    ~shed:(Some (Lf_svc.Shed.config ~max_queue:256 ~est_init:(ms 1) ()))
    ~breaker:
      (Some
         (Lf_svc.Breaker.config ~window:(ms 1000) ~latency_threshold:(ms 100)
            ~open_for:(ms 1000) ()))
    ~backoff:(fun d -> Unix.sleepf (float_of_int d /. 1e9))
    ()

(* [serve] forces the recorder to Histograms on the real clock. *)
let recorder_as_serve () =
  Lf_obs.Recorder.set_level Lf_obs.Recorder.Off;
  Lf_obs.Recorder.reset ();
  Lf_obs.Recorder.set_clock Lf_obs.Recorder.Real;
  Lf_obs.Recorder.set_level Lf_obs.Recorder.Histograms

(* [svc_ops] of bin/lfdict.ml: the single-instance server's backend. *)
let svc_ops t : Svc.ops =
  let span op key f =
    Lf_obs.Recorder.span_begin ~op ~key;
    let ok = f () in
    Lf_obs.Recorder.span_end ~op ~ok;
    ok
  in
  {
    insert =
      (fun k v -> span Lf_obs.Obs_event.Insert k (fun () -> D.insert t k v));
    delete = (fun k -> span Lf_obs.Obs_event.Delete k (fun () -> D.delete t k));
    find =
      (fun k ->
        span Lf_obs.Obs_event.Find k (fun () -> Option.is_some (D.find t k)));
  }

(* [mk_backend] of bin/lfdict.ml's sharded server, plus the sampled
   recorder / fr_skiplist spans (a flag test when not sampling). *)
let mk_backend tables kills i : Router.backend =
  let t = tables.(i) in
  let guard f = if kills.(i) then failwith "shard killed" else f () in
  let span op key ok f =
    let s = !Spans.sampling in
    if s then Spans.begin_ "recorder";
    Lf_obs.Recorder.span_begin ~op ~key;
    if s then Spans.begin_ "fr_skiplist";
    let r = f () in
    if s then Spans.end_ "fr_skiplist";
    Lf_obs.Recorder.span_end ~op ~ok:(ok r);
    if s then Spans.end_ "recorder";
    r
  in
  {
    Router.insert =
      (fun k v ->
        guard (fun () ->
            span Lf_obs.Obs_event.Insert k Fun.id (fun () -> D.insert t k v)));
    delete =
      (fun k ->
        guard (fun () ->
            span Lf_obs.Obs_event.Delete k Fun.id (fun () -> D.delete t k)));
    find =
      (fun k ->
        guard (fun () ->
            span Lf_obs.Obs_event.Find k Option.is_some (fun () -> D.find t k)));
    batched = None;
  }

type stack = {
  prefill : int -> unit;
  exec : Gen.line -> unit;
  router : Router.t option;
}

let single t = function
  | Svc.Insert (k, v) -> ignore (Sys.opaque_identity (D.insert t k v))
  | Svc.Delete k -> ignore (Sys.opaque_identity (D.delete t k))
  | Svc.Find k -> ignore (Sys.opaque_identity (D.find t k))

let on_ops (o : Svc.ops) = function
  | Svc.Insert (k, v) -> ignore (Sys.opaque_identity (o.insert k v))
  | Svc.Delete k -> ignore (Sys.opaque_identity (o.delete k))
  | Svc.Find k -> ignore (Sys.opaque_identity (o.find k))

let structure_rung () =
  let t = D.create () in
  let go = single t in
  {
    prefill = (fun k -> go (Svc.Insert (k, Gen.value_of k)));
    exec = (fun l -> List.iter go l.reqs);
    router = None;
  }

let recorder_rung () =
  let t = D.create () in
  let go = on_ops (svc_ops t) in
  {
    prefill = (fun k -> single t (Svc.Insert (k, Gen.value_of k)));
    exec = (fun l -> List.iter go l.reqs);
    router = None;
  }

let svc_rung cfg () =
  let t = D.create () in
  let svc = Svc.create cfg (svc_ops t) in
  {
    prefill = (fun k -> single t (Svc.Insert (k, Gen.value_of k)));
    exec =
      (fun l ->
        if l.multi then ignore (Sys.opaque_identity (Svc.call_many svc l.reqs))
        else ignore (Sys.opaque_identity (Svc.call svc (List.hd l.reqs))));
    router = None;
  }

let router_parts shards =
  let tables = Array.init shards (fun _ -> D.create ()) in
  let ring = Lf_shard.Hash_ring.create ~seed:1 ~shards () in
  let router =
    Router.create ~ring
      ~svc_config:(fun _ -> serve_config)
      (mk_backend tables (Array.make shards false))
  in
  let prefill k =
    single tables.(Lf_shard.Hash_ring.shard_of ring k) (Svc.Insert (k, Gen.value_of k))
  in
  (router, prefill)

let router_rung shards () =
  let router, prefill = router_parts shards in
  {
    prefill;
    exec =
      (fun l ->
        if l.multi then
          ignore (Sys.opaque_identity (Router.call_many router l.reqs))
        else ignore (Sys.opaque_identity (Router.call router (List.hd l.reqs))));
    router = Some router;
  }

(* The serve loop's dispatch for operation lines, parse to formatted
   reply, with the sampled wire / router spans. *)
let wire_rung () =
  let router, prefill = router_parts 4 in
  (* Span edges are plain flag tests, not wrappers: a closure per call
     would allocate, and the rung must allocate what the server does. *)
  let exec (l : Gen.line) =
    let s = !Spans.sampling in
    if s then Spans.begin_ "wire.parse";
    let parsed = Lf_svc.Wire.parse l.text in
    if s then begin
      Spans.end_ "wire.parse";
      Spans.begin_ "router"
    end;
    let reply =
      match parsed with
      | Ok (Lf_svc.Wire.Op req) ->
          let o = Router.call router req in
          if s then begin
            Spans.end_ "router";
            Spans.begin_ "wire.format"
          end;
          Lf_svc.Wire.format_outcome o
      | Ok (Lf_svc.Wire.Multi reqs) ->
          let os = Router.call_many router reqs in
          if s then begin
            Spans.end_ "router";
            Spans.begin_ "wire.format"
          end;
          Lf_svc.Wire.format_multi os
      | Ok _ | Error _ -> failwith ("not an operation line: " ^ l.text)
    in
    ignore (Sys.opaque_identity reply);
    if s then Spans.end_ "wire.format"
  in
  { prefill; exec; router = Some router }

(* Each rung with whether its structures are the server's four shards.
   That decides the order the prefill goes in (see [prefill_order]). *)
let rungs =
  [|
    ("fr_skiplist", structure_rung, false);
    ("+recorder", recorder_rung, false);
    ("+svc", svc_rung base_config, false);
    ("+policies", svc_rung serve_config, false);
    ("+router(1)", router_rung 1, false);
    ("+router(4)", router_rung 4, true);
    ("+wire", wire_rung, true);
  |]

(* ---- Timing ---- *)

type cost = { ns : float; words : float }

(* Tower heights are coin flips from a per-process stream that every
   insert call draws from, and the words a search allocates depend on the
   towers it crosses.  So a rung inserts its prefill in exactly the order
   the server's MSET prefill reaches the structures: line by line, and
   within a 4-shard router line shard by shard. *)
let prefill_order ~sharded (keys : int array) =
  if not sharded then keys
  else
    let ring = Lf_shard.Hash_ring.create ~seed:1 ~shards:4 () in
    let shard_major (l : Gen.line) =
      let ks = List.map Gen.key_of l.reqs in
      List.concat
        (List.init 4 (fun s ->
             List.filter (fun k -> Lf_shard.Hash_ring.shard_of ring k = s) ks))
    in
    Array.of_list (List.concat_map shard_major (Gen.prefill_lines keys))

(* Run [f] in a forked child and return its result.  A child starts with
   the tower-height stream untouched, exactly like a freshly started
   server, so every rung - and rung 7 and the server - build the same
   towers from the same inserts; its heap holds nothing from earlier
   rungs.  The parent must not have used [D] nor spawned a domain. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file -> Error "rung process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with Ok v -> v | Error e -> failwith e)

(* Replay every line on a fresh, prefilled stack, in slices with the box
   speed measured before each, and return the time at reference speed.
   [record] turns span recording on for one line in 64. *)
let replay ?(record = false) (build, sharded) prefill (lines : Gen.line array) =
  let s = build () in
  Array.iter s.prefill (prefill_order ~sharded prefill);
  Gc.full_major ();
  Lf_obs.Recorder.reset ();
  let n = Array.length lines in
  let i = ref 0 and ns = ref 0. and words = ref 0. in
  while !i < n do
    let f = Calib.factor Calib.Cpu in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let stop = t0 + Calib.slice_ns in
    while !i < n && (!i land 63 <> 0 || now_ns () < stop) do
      let sample = record && !i land 63 = 0 && not (Spans.full ()) in
      if sample then begin
        Spans.sampling := true;
        Spans.begin_ "line"
      end;
      s.exec lines.(!i);
      if sample then begin
        Spans.end_ "line";
        Spans.sampling := false
      end;
      incr i
    done;
    let t1 = now_ns () in
    words := !words +. (Gc.minor_words () -. w0);
    ns := !ns +. (float_of_int (t1 - t0) *. f)
  done;
  ({ ns = !ns; words = !words }, s.router)

let time_loop f (lines : 'a array) =
  let c = Calib.factor Calib.Cpu in
  let t0 = now_ns () in
  Array.iter (fun l -> ignore (Sys.opaque_identity (f l))) lines;
  float_of_int (now_ns () - t0) *. c

(* ---- Structure counts ---- *)

type counts = {
  c_ops : int;
  cas : int;
  cas_fail : int;
  backlinks : int;
  hint_hits : int;
  hint_lookups : int;
}

(* A separate pass over a fixed prefix of the stream on the same
   structure over [Counting_mem].  Single domain, and the only user of
   [Counted]'s tower-height stream in the process, so the counts repeat
   exactly for a seed. *)
let count_pass prefill (lines : Gen.line array) =
  let t = Counted.create () in
  Array.iter (fun k -> ignore (Counted.insert t k (Gen.value_of k))) prefill;
  let hints () =
    match Counted.hint_stats t with
    | Some h -> (h.hits, h.hits + h.stale + h.misses)
    | None -> (0, 0)
  in
  let h0, l0 = hints () in
  Lf_kernel.Counting_mem.reset_all ();
  let ops = ref 0 in
  Array.iter
    (fun (l : Gen.line) ->
      List.iter
        (fun r ->
          incr ops;
          match r with
          | Svc.Insert (k, v) -> ignore (Counted.insert t k v)
          | Svc.Delete k -> ignore (Counted.delete t k)
          | Svc.Find k -> ignore (Counted.find t k))
        l.reqs)
    lines;
  let c = Lf_kernel.Counting_mem.grand_total () in
  let h1, l1 = hints () in
  let cas = Lf_kernel.Counters.total_cas_attempts c in
  {
    c_ops = !ops;
    cas;
    cas_fail = cas - Lf_kernel.Counters.total_cas_successes c;
    backlinks = c.backlink_steps;
    hint_hits = h1 - h0;
    hint_lookups = l1 - l0;
  }

(* ---- The whole ladder ---- *)

(* What the full-stack rung reads off the router after its replay. *)
type router_stats = {
  calls : int;
  rejected : int;
  retries : int;
  hedged : int;
}

let router_stats router =
  let stats = Router.stats router in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 stats in
  {
    calls = sum (fun s -> s.Svc.calls);
    rejected = sum (fun s -> List.fold_left (fun a (_, n) -> a + n) 0 s.Svc.rejected);
    retries = sum (fun s -> s.Svc.retries);
    hedged = Array.fold_left (fun a (n, _) -> a + n) 0 (Router.hedge_stats router);
  }

type t = {
  lines : int;
  ops : int;
  costs : (string * cost) array;  (** rungs 1..7, spans off *)
  spans_on : cost;  (** rung 7 again, recording one line in 64 *)
  parse_ns : float;
  format_ns : float;
  structure : counts;
  router : router_stats;  (** rung 7 with spans, after its replay *)
  shards_per_multi : float;
  spans : int;  (** span events written *)
}

let steps spec ~seed n =
  let inputs = Gen.inputs spec ~seed in
  let acc = ref [] in
  for _ = 1 to n do
    acc := spec.Gen.step inputs.steps :: !acc
  done;
  (inputs.prefill, Array.concat (List.rev !acc))

(* The replies a correct server gives, from the sequential model. *)
let expected_outcomes spec prefill (lines : Gen.line array) =
  let m = Gen.model spec in
  Array.iter (fun k -> Gen.after_served m (Svc.Insert (k, 0)) true) prefill;
  Array.map
    (fun (l : Gen.line) ->
      List.map
        (fun r ->
          let b = Option.get (Gen.expected m r) in
          Gen.after_served m r b;
          Svc.Served b)
        l.reqs)
    lines

let shards_per_multi (lines : Gen.line array) =
  let ring = Lf_shard.Hash_ring.create ~seed:1 ~shards:4 () in
  let multis = List.filter (fun (l : Gen.line) -> l.multi) (Array.to_list lines) in
  if multis = [] then 0.
  else
    float_of_int
      (List.fold_left
         (fun a (l : Gen.line) ->
           a
           + List.length
               (List.sort_uniq compare
                  (List.map
                     (fun r -> Lf_shard.Hash_ring.shard_of ring (Gen.key_of r))
                     l.reqs)))
         0 multis)
    /. float_of_int (List.length multis)

let run (spec : Gen.spec) ~seed ~steps:n ~count_steps ~trace_file =
  recorder_as_serve ();
  let structure =
    let prefill, lines = steps spec ~seed count_steps in
    count_pass prefill lines
  in
  let prefill, lines = steps spec ~seed n in
  let ops = Array.fold_left (fun a (l : Gen.line) -> a + List.length l.reqs) 0 lines in
  let costs =
    Array.map
      (fun (name, build, sharded) ->
        (name, in_child (fun () -> fst (replay (build, sharded) prefill lines))))
      rungs
  in
  let spans_on, router, spans =
    in_child (fun () ->
        let c, r = replay ~record:true (wire_rung, true) prefill lines in
        let json = Spans.to_chrome ~title:(spec.name ^ " rung 7 (+wire), sampled") in
        (match Lf_obs.Chrome_trace.check json with
        | Ok () -> ()
        | Error e -> failwith ("span trace fails Chrome_trace.check: " ^ e));
        let oc = open_out_bin trace_file in
        output_string oc json;
        close_out oc;
        (c, router_stats (Option.get r), !Spans.n))
  in
  let parse_ns = time_loop (fun (l : Gen.line) -> Lf_svc.Wire.parse l.text) lines in
  let format_ns =
    let outs = expected_outcomes spec prefill lines in
    time_loop
      (fun (l, os) ->
        if l.Gen.multi then Lf_svc.Wire.format_multi os
        else Lf_svc.Wire.format_outcome (List.hd os))
      (Array.map2 (fun l o -> (l, o)) lines outs)
  in
  {
    lines = Array.length lines;
    ops;
    costs;
    spans_on;
    parse_ns;
    format_ns;
    structure;
    router;
    shards_per_multi = shards_per_multi lines;
    spans;
  }
