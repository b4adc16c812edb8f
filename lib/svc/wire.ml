type command =
  | Op of Svc.req
  | Multi of Svc.req list
  | Kill of int
  | Health
  | Metrics
  | Slo
  | Replicas
  | Heal
  | Flightdump
  | Quit
  | Shutdown

type verb =
  | V_op
  | V_multi
  | V_kill
  | V_health
  | V_metrics
  | V_slo
  | V_replicas
  | V_heal
  | V_flightdump
  | V_quit
  | V_shutdown

let max_batch = 64

(* The parser scans token positions in the line and writes the batch in
   place: it copies nothing but the error text.  Every helper is
   top-level: without flambda a local function that captures a variable
   is a closure allocated per call. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Tokens are maximal runs of non-space bytes. *)
let rec skip_spaces s i n =
  if i < n && s.[i] = ' ' then skip_spaces s (i + 1) n else i

let rec token_end s i n =
  if i < n && s.[i] <> ' ' then token_end s (i + 1) n else i

let rec count_tokens s i n acc =
  let i = skip_spaces s i n in
  if i = n then acc else count_tokens s (token_end s i n) n (acc + 1)

(* Case-insensitive match of s.[i..j-1] against an upper-case verb. *)
let rec verb_from s i v k =
  k = String.length v
  || (Char.uppercase_ascii s.[i + k] = v.[k] && verb_from s i v (k + 1))

let verb_is s i j v = j - i = String.length v && verb_from s i v 0

(* Minus the decimal digits s.[i..j-1], accumulated negatively so
   [min_int] fits; [1] (never a negative accumulation) when a byte is
   not a digit or the value leaves the int range. *)
let rec neg_digits s i j acc =
  if i = j then acc
  else
    let c = s.[i] in
    if c < '0' || c > '9' then 1
    else
      let d = Char.code c - Char.code '0' in
      if acc < (min_int + d) / 10 then 1
      else neg_digits s (i + 1) j ((acc * 10) - d)

(* The decimal integer s.[i..j-1]: an optional [-], then at least one
   digit, within the int range. *)
let int_at what s i j =
  let neg = s.[i] = '-' in
  let d = if neg then i + 1 else i in
  let acc = if d = j then 1 else neg_digits s d j 0 in
  if acc > 0 || ((not neg) && acc = min_int) then
    bad "bad %s %S" what (String.sub s i (j - i))
  else if neg then acc
  else -acc

(* The [k]th key of a batch must differ from the [k] before it. *)
let rec fresh_key keys k key =
  if k = 0 then ()
  else if keys.(k - 1) = key then bad "duplicate key %d" key
  else fresh_key keys (k - 1) key

(* Batch validation, shared by MGET and MSET: non-empty, bounded, no
   duplicate keys (a duplicate in one batch has no well-defined per-key
   outcome — the scatter-gather reports one outcome per key). *)
let check_batch n =
  if n = 0 then bad "empty batch"
  else if n > max_batch then bad "batch too large (max %d)" max_batch

let set (b : Svc.batch) k op key v =
  b.ops.(k) <- op;
  b.keys.(k) <- key;
  b.vals.(k) <- v

let rec mget b s i n k count =
  if k < count then begin
    let a = skip_spaces s i n in
    let j = token_end s a n in
    let key = int_at "key" s a j in
    fresh_key b.Svc.keys k key;
    set b k Lf_obs.Obs_event.Find key 0;
    mget b s j n (k + 1) count
  end

let rec mset b s i n k count =
  if k < count then begin
    let a = skip_spaces s i n in
    let j = token_end s a n in
    let c = skip_spaces s j n in
    let d = token_end s c n in
    let key = int_at "key" s a j in
    let v = int_at "value" s c d in
    fresh_key b.Svc.keys k key;
    set b k Lf_obs.Obs_event.Insert key v;
    mset b s d n (k + 1) count
  end

(* The one integer argument of a verb, after position [i]. *)
let arg1 what s i n =
  let a = skip_spaces s i n in
  int_at what s a (token_end s a n)

(* A single-key request into entry 0. *)
let point (b : Svc.batch) op key v =
  set b 0 op key v;
  b.len <- 1

(* Every [Ok] below is a constant: a parsed line allocates nothing. *)
let command (b : Svc.batch) s i n =
  b.len <- 0;
  let i = skip_spaces s i n in
  if i = n then bad "empty line"
  else
    let j = token_end s i n in
    let args = count_tokens s j n 0 in
    if verb_is s i j "GET" && args = 1 then begin
      point b Find (arg1 "key" s j n) 0;
      Ok V_op
    end
    else if verb_is s i j "MGET" then begin
      check_batch args;
      mget b s j n 0 args;
      b.len <- args;
      Ok V_multi
    end
    else if verb_is s i j "MSET" then begin
      if args = 0 then bad "empty batch";
      if args mod 2 <> 0 then bad "MSET wants key value pairs";
      check_batch (args / 2);
      mset b s j n 0 (args / 2);
      b.len <- args / 2;
      Ok V_multi
    end
    else if verb_is s i j "PUT" && args = 2 then begin
      let a = skip_spaces s j n in
      let e = token_end s a n in
      let k = int_at "key" s a e in
      point b Insert k (arg1 "value" s e n);
      Ok V_op
    end
    else if verb_is s i j "DEL" && args = 1 then begin
      point b Delete (arg1 "key" s j n) 0;
      Ok V_op
    end
    else if verb_is s i j "KILL" && args = 1 then begin
      b.keys.(0) <- arg1 "shard" s j n;
      Ok V_kill
    end
    else if args = 0 && verb_is s i j "HEALTH" then Ok V_health
    else if args = 0 && verb_is s i j "METRICS" then Ok V_metrics
    else if args = 0 && verb_is s i j "SLO" then Ok V_slo
    else if args = 0 && verb_is s i j "REPLICAS" then Ok V_replicas
    else if args = 0 && verb_is s i j "HEAL" then Ok V_heal
    else if args = 0 && verb_is s i j "FLIGHTDUMP" then Ok V_flightdump
    else if args = 0 && verb_is s i j "QUIT" then Ok V_quit
    else if args = 0 && verb_is s i j "SHUTDOWN" then Ok V_shutdown
    else
      bad "bad command %S" (String.uppercase_ascii (String.sub s i (j - i)))

let parse_into b s i j =
  let j = if j > i && s.[j - 1] = '\r' then j - 1 else j in
  match command b s i j with v -> v | exception Bad m -> Error m

let rec reqs_of (b : Svc.batch) k acc =
  if k < 0 then acc else reqs_of b (k - 1) (Svc.batch_req b k :: acc)

(* [parse]'s batch: one, shared under a lock held only while a line is
   parsed and boxed, so the wrapper allocates just what it returns. *)
let shared = Svc.batch max_batch
let shared_mu = Mutex.create ()

let command_of b = function
  | Error m -> Error m
  | Ok V_op -> Ok (Op (Svc.batch_req b 0))
  | Ok V_multi -> Ok (Multi (reqs_of b (b.Svc.len - 1) []))
  | Ok V_kill -> Ok (Kill b.keys.(0))
  | Ok V_health -> Ok Health
  | Ok V_metrics -> Ok Metrics
  | Ok V_slo -> Ok Slo
  | Ok V_replicas -> Ok Replicas
  | Ok V_heal -> Ok Heal
  | Ok V_flightdump -> Ok Flightdump
  | Ok V_quit -> Ok Quit
  | Ok V_shutdown -> Ok Shutdown

let parse line =
  Mutex.lock shared_mu;
  let c = command_of shared (parse_into shared line 0 (String.length line)) in
  Mutex.unlock shared_mu;
  c

let format_outcome = function
  | Svc.Served true -> "OK true"
  | Svc.Served false -> "OK false"
  | Svc.Served_stale (b, lag) -> Printf.sprintf "STALE %b lag=%d" b lag
  | Svc.Rejected r -> "REJECTED " ^ Svc.reason_to_string r
  | Svc.Failed m -> "FAILED " ^ String.map (function '\n' -> ' ' | c -> c) m

let write_outcome oc = function
  | Svc.Rejected r ->
      output_string oc "REJECTED ";
      output_string oc (Svc.reason_to_string r);
      output_char oc '\n'
  | o ->
      output_string oc (format_outcome o);
      output_char oc '\n'

(* One token per key, in request order: the wire answer to a batch can
   never collapse per-key outcomes into one error.  A replica-served
   read is tagged [stale:<t|f>:<lag>], never a bare [t]/[f] — the
   staleness contract survives batching. *)
let outcome_token = function
  | Svc.Served true -> "t"
  | Svc.Served false -> "f"
  | Svc.Served_stale (b, lag) ->
      Printf.sprintf "stale:%c:%d" (if b then 't' else 'f') lag
  | Svc.Rejected r -> Svc.reason_to_string r
  | Svc.Failed _ -> "failed"

(* [MULTI <n>] for every batch size the parser accepts, built once. *)
let headers = Array.init (max_batch + 1) (Printf.sprintf "MULTI %d")

let header n =
  if n <= max_batch then headers.(n) else Printf.sprintf "MULTI %d" n

let write_multi oc (b : Svc.batch) =
  output_string oc (header b.len);
  for i = 0 to b.len - 1 do
    output_char oc ' ';
    output_string oc (outcome_token b.outcomes.(i))
  done;
  output_char oc '\n'

(* The header, then [" <tok>"] per outcome, written into one buffer of
   the exact length. *)
let rec tokens_length acc = function
  | [] -> acc
  | o :: rest ->
      tokens_length (acc + 1 + String.length (outcome_token o)) rest

let rec blit_tokens b pos = function
  | [] -> ()
  | o :: rest ->
      let tok = outcome_token o in
      Bytes.set b pos ' ';
      Bytes.blit_string tok 0 b (pos + 1) (String.length tok);
      blit_tokens b (pos + 1 + String.length tok) rest

let format_multi = function
  | [] -> "MULTI 0 "
  | outcomes ->
      let head = header (List.length outcomes) in
      let n = String.length head in
      let b = Bytes.create (n + tokens_length 0 outcomes) in
      Bytes.blit_string head 0 b 0 n;
      blit_tokens b n outcomes;
      Bytes.unsafe_to_string b

let format_error msg = "ERR " ^ msg
