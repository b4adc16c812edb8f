(* Chrome trace-event JSON exporter (the format chrome://tracing and
   Perfetto load).

   Mapping: pid = recording domain, tid = lane (simulated process under
   the simulator, so a sim trace shows every process as its own track);
   operation spans become "B"/"E" duration pairs, C&S attempts and
   cost-model notes become "i" instants, and "M" metadata rows name each
   pid/tid.  Timestamps are the recorder's clock divided by [time_div]:
   1 under the simulator (steps, already integral — the whole file is
   then a pure function of the seed, which CI checks byte-for-byte) and
   1000 on real memory (ns -> us, the format's native unit).

   Request spans are not rendered here: [Flight] draws them as trees,
   through the same row printer.

   The ring buffers overwrite oldest events, which can orphan a span
   edge: an "E" whose "B" was overwritten, or a "B" whose "E" was never
   recorded (operation in flight at collection, or the lane's span was
   replaced).  A pre-pass drops unmatched edges so the emitted file
   always has perfectly paired, non-crossing spans per (pid, tid). *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let cas_name cas = "cas:" ^ Profile.phase_name (Profile.phase_index cas)

(* Keep only matched span edges: per (dom, lane), a Span_end with no open
   Span_begin is dropped, a Span_begin superseded before its end is
   dropped, and Span_begins still open at the end of the stream are
   dropped.  Instants always survive. *)
let matched_edges (events : Obs_event.t array) =
  let keep = Array.make (Array.length events) true in
  let open_idx : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i (e : Obs_event.t) ->
      let lane_key = (e.dom, e.lane) in
      match e.kind with
      | Obs_event.Span_begin _ ->
          (match Hashtbl.find_opt open_idx lane_key with
          | Some j -> keep.(j) <- false
          | None -> ());
          Hashtbl.replace open_idx lane_key i
      | Obs_event.Span_end _ -> (
          match Hashtbl.find_opt open_idx lane_key with
          | Some _ -> Hashtbl.remove open_idx lane_key
          | None -> keep.(i) <- false)
      | _ -> ())
    events;
  Hashtbl.iter (fun _ j -> keep.(j) <- false) open_idx;
  keep

module ISet = Set.Make (Int)

module IPSet = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* ------------------------------------------------------------------ *)
(* The one row printer: both this module's recorder view and [Flight]'s
   request trees write their rows through it. *)

type arg = Int of int | Bool of bool | Str of string
type rows = { buf : Buffer.t; mutable first : bool }

let rows () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  { buf; first = true }

(* Fields in one order: name, cat, ph, ts, pid, tid, the instant scope
   ("s", on "i" rows only), args (left out when empty). *)
let row r ?cat ?ts ~ph ~pid ~tid ?(args = []) name =
  let b = r.buf in
  if r.first then r.first <- false else Buffer.add_char b ',';
  Printf.bprintf b "\n{\"name\":\"%s\"" (escape name);
  Option.iter (fun c -> Printf.bprintf b ",\"cat\":\"%s\"" (escape c)) cat;
  Printf.bprintf b ",\"ph\":\"%c\"" ph;
  Option.iter (Printf.bprintf b ",\"ts\":%d") ts;
  Printf.bprintf b ",\"pid\":%d,\"tid\":%d" pid tid;
  if ph = 'i' then Buffer.add_string b ",\"s\":\"t\"";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s\"%s\":" (if i = 0 then ",\"args\":{" else ",") k;
      match v with
      | Int n -> Printf.bprintf b "%d" n
      | Bool x -> Printf.bprintf b "%b" x
      | Str x -> Printf.bprintf b "\"%s\"" (escape x))
    args;
  Buffer.add_string b (if args = [] then "}" else "}}")

let contents r =
  Buffer.add_string r.buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents r.buf

(* ------------------------------------------------------------------ *)
(* The recorder's events.  Request spans are left to [Flight], which
   renders them as trees. *)

let to_string ?(time_div = 1) (events : Obs_event.t list) =
  let events =
    List.filter
      (fun (e : Obs_event.t) ->
        match e.kind with Req_begin _ | Req_end _ | Req_event _ -> false | _ -> true)
      events
    |> Array.of_list
  in
  let keep = matched_edges events in
  let doms = ref ISet.empty in
  let lanes = ref IPSet.empty in
  Array.iter
    (fun (e : Obs_event.t) ->
      doms := ISet.add e.dom !doms;
      lanes := IPSet.add (e.dom, e.lane) !lanes)
    events;
  let r = rows () in
  (* Metadata first: name every process (domain) and thread (lane). *)
  ISet.iter
    (fun d ->
      row r ~ph:'M' ~pid:d ~tid:0
        ~args:[ ("name", Str (Printf.sprintf "domain-%d" d)) ] "process_name")
    !doms;
  IPSet.iter
    (fun (d, l) ->
      row r ~ph:'M' ~pid:d ~tid:l
        ~args:[ ("name", Str (Printf.sprintf "lane-%d" l)) ] "thread_name")
    !lanes;
  Array.iteri
    (fun i (e : Obs_event.t) ->
      let row = row r ~ts:(e.ts / max 1 time_div) ~pid:e.dom ~tid:e.lane in
      if keep.(i) then
        match e.kind with
        | Span_begin { op; key } ->
            row ~cat:"op" ~ph:'B' ~args:[ ("key", Int key) ] (Obs_event.op_to_string op)
        | Span_end { op; ok } ->
            row ~cat:"op" ~ph:'E' ~args:[ ("ok", Bool ok) ] (Obs_event.op_to_string op)
        | Cas { cas; ok } -> row ~cat:"cas" ~ph:'i' ~args:[ ("ok", Bool ok) ] (cas_name cas)
        | Note ev -> row ~cat:"note" ~ph:'i' (Lf_kernel.Mem_event.to_string ev)
        | Req_begin _ | Req_end _ | Req_event _ -> ())
    events;
  contents r

(* ------------------------------------------------------------------ *)
(* Well-formedness checker (lfdict trace --check, and the tests).

   Checks: the file parses as JSON; the top level carries a "traceEvents"
   array; every event has ph/pid/tid (and a ts for B/E/i); per (pid, tid)
   the B/E edges obey stack discipline with matching names and
   non-decreasing timestamps; every pid that appears is named by a
   process_name metadata row. *)

let check (s : string) : (unit, string) result =
  match Obs_json.parse s with
  | Error msg -> Error ("not JSON: " ^ msg)
  | Ok root -> (
      match Option.bind (Obs_json.member "traceEvents" root) Obs_json.to_list_opt with
      | None -> Error "no traceEvents array"
      | Some rows -> (
          let named_pids = Hashtbl.create 8 in
          let stacks : (int * int, (string * float) list ref) Hashtbl.t =
            Hashtbl.create 16
          in
          let stack k =
            match Hashtbl.find_opt stacks k with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add stacks k r;
                r
          in
          let err = ref None in
          let fail i msg =
            if !err = None then err := Some (Printf.sprintf "event %d: %s" i msg)
          in
          List.iteri
            (fun i row ->
              let str k = Option.bind (Obs_json.member k row) Obs_json.to_string_opt in
              let num k = Option.bind (Obs_json.member k row) Obs_json.to_num_opt in
              match (str "ph", num "pid", num "tid") with
              | None, _, _ -> fail i "missing ph"
              | _, None, _ -> fail i "missing pid"
              | _, _, None -> fail i "missing tid"
              | Some ph, Some pid, Some tid -> (
                  let name = str "name" in
                  match ph with
                  | "M" ->
                      if name = Some "process_name" then
                        Hashtbl.replace named_pids (int_of_float pid) ()
                  (* "C" (counter) rows carry name/ts like instants but no
                     stack discipline and no naming requirement. *)
                  | "C" -> (
                      match (name, num "ts") with
                      | None, _ -> fail i "missing name"
                      | _, None -> fail i "missing ts"
                      | Some _, Some _ -> ())
                  | "B" | "E" | "i" -> (
                      match (name, num "ts") with
                      | None, _ -> fail i "missing name"
                      | _, None -> fail i "missing ts"
                      | Some nm, Some ts -> (
                          let k = (int_of_float pid, int_of_float tid) in
                          match ph with
                          | "B" ->
                              let st = stack k in
                              (match !st with
                              | (_, prev) :: _ when ts < prev ->
                                  fail i "timestamp went backwards"
                              | _ -> ());
                              st := (nm, ts) :: !st
                          | "E" -> (
                              let st = stack k in
                              match !st with
                              | [] -> fail i "E without matching B"
                              | (bn, bts) :: rest ->
                                  if bn <> nm then
                                    fail i
                                      (Printf.sprintf
                                         "E name %S does not match open B %S" nm bn);
                                  if ts < bts then fail i "span ends before it begins";
                                  st := rest)
                          | _ -> ()))
                  | other -> fail i (Printf.sprintf "unknown ph %S" other)))
            rows;
          Hashtbl.iter
            (fun (pid, _) st ->
              if !st <> [] && !err = None then
                err := Some (Printf.sprintf "pid %d: unclosed span at end of trace" pid))
            stacks;
          if !err = None then begin
            (* Every pid that emitted a span/instant must be named. *)
            List.iteri
              (fun i row ->
                let ph =
                  Option.bind (Obs_json.member "ph" row) Obs_json.to_string_opt
                in
                let pid =
                  Option.bind (Obs_json.member "pid" row) Obs_json.to_num_opt
                in
                match (ph, pid) with
                | Some ("B" | "E" | "i"), Some p ->
                    if not (Hashtbl.mem named_pids (int_of_float p)) then
                      fail i (Printf.sprintf "pid %d has no process_name metadata"
                                (int_of_float p))
                | _ -> ())
              rows
          end;
          match !err with None -> Ok () | Some m -> Error m))
