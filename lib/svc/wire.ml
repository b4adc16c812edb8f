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

let max_batch = 64

(* The parser scans token positions in the line and copies nothing but
   the error text.  Every helper is top-level: without flambda a local
   function that captures a variable is a closure allocated per call. *)

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

(* A batch's requests, built back to front from its parsed keys. *)
let rec finds keys k acc =
  if k < 0 then acc else finds keys (k - 1) (Svc.Find keys.(k) :: acc)

let rec inserts keys vals k acc =
  if k < 0 then acc
  else inserts keys vals (k - 1) (Svc.Insert (keys.(k), vals.(k)) :: acc)

(* Batch validation, shared by MGET and MSET: non-empty, bounded, no
   duplicate keys (a duplicate in one batch has no well-defined per-key
   outcome — the scatter-gather reports one outcome per key). *)
let check_batch n =
  if n = 0 then bad "empty batch"
  else if n > max_batch then bad "batch too large (max %d)" max_batch

let mget s i n count =
  check_batch count;
  let keys = Array.make count 0 in
  let pos = ref i in
  for k = 0 to count - 1 do
    let a = skip_spaces s !pos n in
    let b = token_end s a n in
    let key = int_at "key" s a b in
    fresh_key keys k key;
    keys.(k) <- key;
    pos := b
  done;
  Multi (finds keys (count - 1) [])

let mset s i n args =
  if args = 0 then bad "empty batch";
  if args mod 2 <> 0 then bad "MSET wants key value pairs";
  let count = args / 2 in
  check_batch count;
  let keys = Array.make count 0 and vals = Array.make count 0 in
  let pos = ref i in
  for k = 0 to count - 1 do
    let a = skip_spaces s !pos n in
    let b = token_end s a n in
    let c = skip_spaces s b n in
    let d = token_end s c n in
    let key = int_at "key" s a b in
    let v = int_at "value" s c d in
    fresh_key keys k key;
    keys.(k) <- key;
    vals.(k) <- v;
    pos := d
  done;
  Multi (inserts keys vals (count - 1) [])

(* The one integer argument of a verb, after position [i]. *)
let arg1 what s i n =
  let a = skip_spaces s i n in
  int_at what s a (token_end s a n)

let command s n =
  let i = skip_spaces s 0 n in
  if i = n then bad "empty line"
  else
    let j = token_end s i n in
    let args = count_tokens s j n 0 in
    if verb_is s i j "GET" && args = 1 then Op (Svc.Find (arg1 "key" s j n))
    else if verb_is s i j "MGET" then mget s j n args
    else if verb_is s i j "MSET" then mset s j n args
    else if verb_is s i j "PUT" && args = 2 then begin
      let a = skip_spaces s j n in
      let b = token_end s a n in
      let k = int_at "key" s a b in
      Op (Svc.Insert (k, arg1 "value" s b n))
    end
    else if verb_is s i j "DEL" && args = 1 then
      Op (Svc.Delete (arg1 "key" s j n))
    else if verb_is s i j "KILL" && args = 1 then Kill (arg1 "shard" s j n)
    else if args = 0 && verb_is s i j "HEALTH" then Health
    else if args = 0 && verb_is s i j "METRICS" then Metrics
    else if args = 0 && verb_is s i j "SLO" then Slo
    else if args = 0 && verb_is s i j "REPLICAS" then Replicas
    else if args = 0 && verb_is s i j "HEAL" then Heal
    else if args = 0 && verb_is s i j "FLIGHTDUMP" then Flightdump
    else if args = 0 && verb_is s i j "QUIT" then Quit
    else if args = 0 && verb_is s i j "SHUTDOWN" then Shutdown
    else
      bad "bad command %S" (String.uppercase_ascii (String.sub s i (j - i)))

let parse line =
  let n = String.length line in
  let n = if n > 0 && line.[n - 1] = '\r' then n - 1 else n in
  match command line n with c -> Ok c | exception Bad m -> Error m

let format_outcome = function
  | Svc.Served true -> "OK true"
  | Svc.Served false -> "OK false"
  | Svc.Served_stale (b, lag) -> Printf.sprintf "STALE %b lag=%d" b lag
  | Svc.Rejected r -> "REJECTED " ^ Svc.reason_to_string r
  | Svc.Failed m -> "FAILED " ^ String.map (function '\n' -> ' ' | c -> c) m

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

(* [MULTI <n>] then [" <tok>"] per outcome, written into one buffer of
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
      let count = string_of_int (List.length outcomes) in
      let head = 6 + String.length count in
      let b = Bytes.create (head + tokens_length 0 outcomes) in
      Bytes.blit_string "MULTI " 0 b 0 6;
      Bytes.blit_string count 0 b 6 (String.length count);
      blit_tokens b head outcomes;
      Bytes.unsafe_to_string b

let format_error msg = "ERR " ^ msg
