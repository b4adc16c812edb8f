(* Prometheus text-exposition snapshot of the recorder, plus a grammar
   validator for it.

   [snapshot ()] renders whatever the recorder currently holds — tallies
   at [Counters] and above, latency quantiles and contention counts at
   [Histograms] and above — as `# HELP` / `# TYPE` blocks and
   `name{labels} value` samples, the format any Prometheus-compatible
   scraper ingests.  Deterministic: metrics in fixed order, label sets
   sorted by construction.

   [validate] is a character-level check of the exposition grammar
   (metric-name charset, label syntax, float-parseable values), used by
   the tests and `lfdict metrics --check` so the exporter cannot drift
   from what a scraper accepts. *)

module C = Lf_kernel.Counters

let escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let header buf name help typ =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)

let sample buf name labels value =
  (match labels with
  | [] -> Buffer.add_string buf name
  | ls ->
      Buffer.add_string buf name;
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label v);
          Buffer.add_char buf '"')
        ls;
      Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let int_sample buf name labels v = sample buf name labels (string_of_int v)

let float_sample buf name labels v =
  sample buf name labels (Printf.sprintf "%.6g" v)

let quantiles = [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

let snapshot () =
  let buf = Buffer.create 2048 in
  let tally = Recorder.tallies () in
  header buf "lf_reads_total" "Shared-memory reads observed at the Mem.S seam"
    "counter";
  int_sample buf "lf_reads_total" [] tally.C.reads;
  header buf "lf_writes_total" "Shared-memory writes observed at the Mem.S seam"
    "counter";
  int_sample buf "lf_writes_total" [] tally.C.writes;
  header buf "lf_cas_attempts_total" "C&S attempts by protocol phase" "counter";
  List.iter
    (fun k ->
      int_sample buf "lf_cas_attempts_total"
        [ ("phase", Profile.phase_name (Profile.phase_index k)) ]
        tally.C.cas_attempts.(C.kind_index k))
    C.cas_kinds;
  header buf "lf_cas_failures_total" "Failed C&S by protocol phase" "counter";
  List.iter
    (fun k ->
      let i = C.kind_index k in
      int_sample buf "lf_cas_failures_total"
        [ ("phase", Profile.phase_name (Profile.phase_index k)) ]
        (tally.C.cas_attempts.(i) - tally.C.cas_successes.(i)))
    C.cas_kinds;
  header buf "lf_cost_model_steps_total"
    "Cost-model events (backlink traversals, pointer updates, retries, helps)"
    "counter";
  List.iter
    (fun (kind, v) ->
      int_sample buf "lf_cost_model_steps_total" [ ("kind", kind) ] v)
    [
      ("backlink", tally.C.backlink_steps);
      ("next_update", tally.C.next_updates);
      ("curr_update", tally.C.curr_updates);
      ("aux", tally.C.aux_steps);
      ("retry", tally.C.retries);
      ("help", tally.C.helps);
    ];
  header buf "lf_ops_total" "Finished dictionary operations by type" "counter";
  List.iter
    (fun (op, n) ->
      int_sample buf "lf_ops_total" [ ("op", Obs_event.op_to_string op) ] n)
    (Recorder.ops_counts ());
  header buf "lf_op_latency" "Operation latency quantiles (recorder clock units)"
    "summary";
  List.iter
    (fun (op, h) ->
      let op_l = ("op", Obs_event.op_to_string op) in
      if Hist.count h > 0 then
        List.iter
          (fun q ->
            float_sample buf "lf_op_latency"
              [ op_l; ("quantile", Printf.sprintf "%g" q) ]
              (Hist.percentile h q))
          quantiles;
      int_sample buf "lf_op_latency_sum" [ op_l ] (Hist.sum h);
      int_sample buf "lf_op_latency_count" [ op_l ] (Hist.count h))
    (Recorder.latencies ());
  (* Request latency histogram with tail-based exemplars: cumulative
     buckets from the recorder's exemplars, each bucket carrying the
     trace id of its worst recent request (OpenMetrics exemplar syntax,
     accepted by [validate]). *)
  header buf "lf_latency"
    "Request latency histogram with trace-id exemplars (clock ticks)"
    "histogram";
  let cum = ref 0 in
  List.iter
    (fun (x : Recorder.exemplar) ->
      cum := !cum + x.ex_count;
      Buffer.add_string buf
        (Printf.sprintf
           "lf_latency_bucket{le=\"%d\"} %d # {trace_id=\"%d\"} %d\n"
           x.ex_le !cum x.ex_trace x.ex_latency))
    (Recorder.exemplars ());
  let lat_sum, lat_count = Recorder.latency_totals () in
  int_sample buf "lf_latency_bucket" [ ("le", "+Inf") ] lat_count;
  int_sample buf "lf_latency_sum" [] lat_sum;
  int_sample buf "lf_latency_count" [] lat_count;
  header buf "lf_trace_events" "Trace events retained in the ring buffers"
    "gauge";
  int_sample buf "lf_trace_events" [] (Recorder.event_count ());
  header buf "lf_trace_dropped_total"
    "Trace events lost to ring-buffer overwrites" "counter";
  int_sample buf "lf_trace_dropped_total" [] (Recorder.dropped ());
  (* GC attribution: process-lifetime runtime counters, independent of the
     recorder level, so a scrape can always correlate a latency spike with
     collection activity (EXP-22). *)
  let gc = Gc_attr.totals () in
  header buf "lf_gc_minor_collections_total" "Minor GC collections" "counter";
  int_sample buf "lf_gc_minor_collections_total" [] gc.Gc_attr.minor_collections;
  header buf "lf_gc_major_collections_total" "Major GC collections" "counter";
  int_sample buf "lf_gc_major_collections_total" [] gc.Gc_attr.major_collections;
  header buf "lf_gc_minor_words_total" "Words allocated on the minor heap"
    "counter";
  float_sample buf "lf_gc_minor_words_total" [] gc.Gc_attr.minor_words;
  header buf "lf_gc_promoted_words_total"
    "Words promoted from the minor to the major heap" "counter";
  float_sample buf "lf_gc_promoted_words_total" [] gc.Gc_attr.promoted_words;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Custom metric blocks: other layers (the shard router's per-shard
   counters, say) describe metrics as data and render them through the
   same emitters as [snapshot], so one validator covers everything a
   scrape can see. *)

type metric = {
  m_name : string;
  m_help : string;
  m_type : string;
  m_samples : ((string * string) list * float) list;
}

let render_metrics metrics =
  let buf = Buffer.create 512 in
  List.iter
    (fun m ->
      header buf m.m_name m.m_help m.m_type;
      List.iter
        (fun (labels, v) ->
          if Float.is_integer v && Float.abs v < 1e15 then
            sample buf m.m_name labels (Printf.sprintf "%.0f" v)
          else float_sample buf m.m_name labels v)
        m.m_samples)
    metrics;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Grammar validator *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let is_label_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* Parse one [{name="value",...}] set in [s] at [!pos] (pointing at the
   '{'); advances [pos] past the closing '}'.  Shared by the sample's
   label set and the OpenMetrics exemplar's. *)
let parse_labelset s pos =
  let n = String.length s in
  if !pos >= n || s.[!pos] <> '{' then Error "expected '{'"
  else begin
    incr pos;
    let rec labels () =
      if !pos >= n then Error "unterminated label set"
      else if s.[!pos] = '}' then begin
        incr pos;
        Ok ()
      end
      else if not (is_label_start s.[!pos]) then Error "bad label name"
      else begin
        while !pos < n && is_name_char s.[!pos] do
          incr pos
        done;
        if !pos >= n || s.[!pos] <> '=' then Error "expected '='"
        else begin
          incr pos;
          if !pos >= n || s.[!pos] <> '"' then Error "expected '\"'"
          else begin
            incr pos;
            let closed = ref false in
            while (not !closed) && !pos < n do
              if s.[!pos] = '\\' then pos := !pos + 2
              else if s.[!pos] = '"' then begin
                closed := true;
                incr pos
              end
              else incr pos
            done;
            if not !closed then Error "unterminated label value"
            else if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              labels ()
            end
            else labels ()
          end
        end
      end
    in
    labels ()
  end

let float_token = function
  | "NaN" | "+Inf" | "-Inf" -> true
  | v -> ( match float_of_string_opt v with Some _ -> true | None -> false)

let validate_line ln line =
  let err msg = Error (Printf.sprintf "line %d: %s (%S)" ln msg line) in
  let n = String.length line in
  if n = 0 then Ok ()
  else if line.[0] = '#' then
    (* Comment: require the structured HELP/TYPE form, which is all the
       exporter emits. *)
    if
      String.length line >= 7
      && (String.sub line 0 7 = "# HELP " || String.sub line 0 7 = "# TYPE ")
    then Ok ()
    else err "comment is neither # HELP nor # TYPE"
  else begin
    let pos = ref 0 in
    let token () =
      let start = !pos in
      while !pos < n && line.[!pos] <> ' ' do
        incr pos
      done;
      String.sub line start (!pos - start)
    in
    let name_ok =
      if n > 0 && is_name_start line.[0] then begin
        incr pos;
        while !pos < n && is_name_char line.[!pos] do
          incr pos
        done;
        true
      end
      else false
    in
    if not name_ok then err "bad metric name"
    else begin
      let labels_result =
        if !pos < n && line.[!pos] = '{' then parse_labelset line pos
        else Ok ()
      in
      match labels_result with
      | Error m -> err m
      | Ok () ->
          if !pos >= n || line.[!pos] <> ' ' then
            err "expected space before value"
          else begin
            incr pos;
            let value = token () in
            if not (float_token value) then err "value is not a float"
            else if !pos >= n then Ok ()
            else if
              (* OpenMetrics exemplar: [ # {labels} value [timestamp]]. *)
              not (!pos + 2 < n && line.[!pos + 1] = '#' && line.[!pos + 2] = ' ')
            then err "junk after value"
            else begin
              pos := !pos + 3;
              match parse_labelset line pos with
              | Error m -> err ("exemplar: " ^ m)
              | Ok () ->
                  if !pos >= n || line.[!pos] <> ' ' then
                    err "exemplar: expected value"
                  else begin
                    incr pos;
                    let ev = token () in
                    if not (float_token ev) then
                      err "exemplar value is not a float"
                    else if !pos >= n then Ok ()
                    else begin
                      incr pos;
                      let ts = token () in
                      if !pos = n && float_token ts then Ok ()
                      else err "bad exemplar timestamp"
                    end
                  end
            end
          end
    end
  end

let validate (s : string) : (unit, string) result =
  let lines = String.split_on_char '\n' s in
  let rec go ln = function
    | [] -> Ok ()
    | line :: rest -> (
        match validate_line ln line with
        | Ok () -> go (ln + 1) rest
        | Error _ as e -> e)
  in
  go 1 lines
