(* Serialization of the span flight rings.  All state lives in [Span];
   the only thing here is the dump counter that names the files. *)

let esc = Chrome_trace.escape

(* ------------------------------------------------------------------ *)
(* JSON bundle *)

let span_to_buf buf (s : Span.span) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"begin\":%d,\"end\":%d,\"ok\":%b,\"events\":["
       s.Span.s_id s.Span.s_parent (esc s.Span.s_name) s.Span.s_begin
       s.Span.s_end s.Span.s_ok);
  List.iteri
    (fun i (ts, e) ->
      if i > 0 then Buffer.add_char buf ',';
      let kind, arg = Span.event_strings e in
      Buffer.add_string buf
        (Printf.sprintf "{\"ts\":%d,\"kind\":\"%s\",\"arg\":\"%s\"}" ts
           (esc kind) (esc arg)))
    (Span.span_events s);
  Buffer.add_string buf "]}"

let tree_to_buf buf t =
  Buffer.add_string buf
    (Printf.sprintf "{\"trace\":%d,\"dominant\":\"%s\",\"spans\":["
       (Span.tree_trace t)
       (esc (Span.dominant_phase t)));
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      span_to_buf buf s)
    (Span.tree_spans t);
  Buffer.add_string buf "]}"

let dump_string ~reason ?(meta = []) () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "{\"reason\":\"%s\"" (esc reason));
  Buffer.add_string buf ",\"meta\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v)))
    meta;
  Buffer.add_string buf "},\"trees\":[";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      tree_to_buf buf t)
    (Span.trees ());
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace: one thread track per trace under pid 0, spans emitted
   by recursive descent so B/E edges are perfectly nested per track
   (children clamped into their parent's interval, which a correct
   trace never needs — it keeps the file well-formed even if a clock
   was misconfigured). *)

let chrome_string () =
  let trees = Span.trees () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let row s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n';
    Buffer.add_string buf s
  in
  row
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"lfdict-requests\"}}";
  List.iter
    (fun t ->
      let trace = Span.tree_trace t in
      row
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"trace-%d\"}}"
           trace trace);
      let spans = Span.tree_spans t in
      let children = Hashtbl.create 16 in
      List.iter
        (fun (s : Span.span) ->
          if s.Span.s_id <> (Span.tree_root t).Span.s_id then
            Hashtbl.replace children s.Span.s_parent
              (s
              :: Option.value
                   (Hashtbl.find_opt children s.Span.s_parent)
                   ~default:[]))
        (List.rev spans);
      let rec emit ~lo ~hi (s : Span.span) =
        let b = min (max s.Span.s_begin lo) hi in
        let e = min (max s.Span.s_end b) hi in
        row
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":%d,\"pid\":0,\"tid\":%d,\"args\":{\"id\":%d}}"
             (esc s.Span.s_name) b trace s.Span.s_id);
        List.iter
          (fun (ts, ev) ->
            let kind, arg = Span.event_strings ev in
            row
              (Printf.sprintf
                 "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":%d,\"pid\":0,\"tid\":%d,\"s\":\"t\",\"args\":{\"arg\":\"%s\"}}"
                 (esc kind)
                 (min (max ts b) e)
                 trace (esc arg)))
          (Span.span_events s);
        List.iter (emit ~lo:b ~hi:e)
          (Option.value (Hashtbl.find_opt children s.Span.s_id) ~default:[]);
        row
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":%d,\"pid\":0,\"tid\":%d,\"args\":{\"ok\":%b}}"
             (esc s.Span.s_name) e trace s.Span.s_ok)
      in
      emit ~lo:min_int ~hi:max_int (Span.tree_root t))
    trees;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Files *)

let seq = ref 0

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    (String.lowercase_ascii s)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dump ~dir ~reason ?meta () =
  incr seq;
  let base = Printf.sprintf "flight-%03d-%s" !seq (slug reason) in
  let bundle = Filename.concat dir (base ^ ".json") in
  let chrome = Filename.concat dir (base ^ ".trace.json") in
  match
    mkdir_p dir;
    write_file bundle (dump_string ~reason ?meta ());
    write_file chrome (chrome_string ())
  with
  | () -> Ok (bundle, chrome)
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
  | exception Sys_error msg -> Error msg
