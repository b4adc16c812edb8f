(* Serialization of the request trees [Span] rebuilds from the
   recorder's rings.  The only state here is the dump counter that
   names the files. *)

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
  let r = Chrome_trace.rows () in
  let row = Chrome_trace.row r ~pid:0 in
  row ~ph:'M' ~tid:0 ~args:[ ("name", Str "lfdict-requests") ] "process_name";
  List.iter
    (fun t ->
      let tid = Span.tree_trace t in
      row ~ph:'M' ~tid
        ~args:[ ("name", Str (Printf.sprintf "trace-%d" tid)) ]
        "thread_name";
      let root = Span.tree_root t in
      let children = Hashtbl.create 16 in
      List.iter
        (fun (s : Span.span) ->
          if s.s_id <> root.s_id then
            Hashtbl.replace children s.s_parent
              (s
              :: Option.value (Hashtbl.find_opt children s.s_parent) ~default:[]))
        (List.rev (Span.tree_spans t));
      let rec emit ~lo ~hi (s : Span.span) =
        let b = min (max s.s_begin lo) hi in
        let e = min (max s.s_end b) hi in
        row ~cat:"span" ~ts:b ~ph:'B' ~tid ~args:[ ("id", Int s.s_id) ] s.s_name;
        List.iter
          (fun (ts, ev) ->
            let kind, arg = Span.event_strings ev in
            row ~cat:"event" ~ts:(min (max ts b) e) ~ph:'i' ~tid
              ~args:[ ("arg", Str arg) ]
              kind)
          (Span.span_events s);
        List.iter (emit ~lo:b ~hi:e)
          (Option.value (Hashtbl.find_opt children s.s_id) ~default:[]);
        row ~cat:"span" ~ts:e ~ph:'E' ~tid ~args:[ ("ok", Bool s.s_ok) ] s.s_name
      in
      emit ~lo:min_int ~hi:max_int root)
    (Span.trees ());
  Chrome_trace.contents r

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
