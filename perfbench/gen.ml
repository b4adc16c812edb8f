(* Seeded inputs for the socket workloads and the sequential reply model
   that checks every answer against them.

   A workload is a prefill key set plus an endless stream of closed-loop
   steps.  Each step is one or more wire lines sent one at a time, one
   request in flight; a step is one latency sample.  Every line exists in
   two forms: the text the socket client sends, and the parsed requests
   the in-process ladder rungs call.  Both come from one SplitMix stream
   per seed, so the socket run and the ladder replay see the same lines. *)

module Svc = Lf_svc.Svc
module Rng = Lf_kernel.Splitmix

type line = { text : string; reqs : Svc.req list; multi : bool }

type spec = {
  name : string;
  range : int;  (** keys are drawn from [\[0, range)] *)
  step : Rng.t -> line array;
  scale : Calib.kind;  (** what a step's time is made of *)
}

let key_of = function Svc.Insert (k, _) | Svc.Delete k | Svc.Find k -> k

let single req =
  let text =
    match req with
    | Svc.Insert (k, v) -> Printf.sprintf "PUT %d %d" k v
    | Svc.Delete k -> Printf.sprintf "DEL %d" k
    | Svc.Find k -> Printf.sprintf "GET %d" k
  in
  { text; reqs = [ req ]; multi = false }

let mset pairs =
  {
    text =
      "MSET "
      ^ String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%d %d" k v) pairs);
    reqs = List.map (fun (k, v) -> Svc.Insert (k, v)) pairs;
    multi = true;
  }

let mget keys =
  {
    text = "MGET " ^ String.concat " " (List.map string_of_int keys);
    reqs = List.map (fun k -> Svc.Find k) keys;
    multi = true;
  }

(* The value stored under a key: any int will do (the protocol answers
   found / not found only); a function of the key keeps it reproducible. *)
let value_of k = k land 0xffff

(* [n] distinct keys drawn uniformly from [\[0, range)]. *)
let distinct rng ~range n =
  let rec go acc m =
    if m = n then List.rev acc
    else
      let k = Rng.int rng range in
      if List.mem k acc then go acc m else go (k :: acc) (m + 1)
  in
  go [] 0

let serve_point =
  let range = 4096 in
  let keys = Lf_workload.Keygen.zipf ~range ~theta:0.9 in
  let step rng =
    let req =
      match Lf_workload.Opgen.draw Lf_workload.Opgen.mixed keys rng with
      | Lf_workload.Opgen.Insert k -> Svc.Insert (k, value_of k)
      | Lf_workload.Opgen.Delete k -> Svc.Delete k
      | Lf_workload.Opgen.Find k -> Svc.Find k
    in
    [| single req |]
  in
  { name = "serve-point"; range; step; scale = Calib.Socket }

(* 60% MGET, 20% MSET, 20% a group of 16 DEL lines.  The group keeps the
   live key count near half the range (an MSET inserts about as many keys
   as a group deletes).  Its lines go one round trip at a time: the server
   does not set TCP_NODELAY, so pipelined replies wait out the client's
   delayed ACK (about 40 ms a group on Linux loopback), which would make
   the workload measure that timer instead of the stack. *)
let serve_batch =
  let range = 1 lsl 18 and width = 16 in
  let step rng =
    let r = Rng.int rng 100 in
    let keys = distinct rng ~range width in
    if r < 60 then [| mget keys |]
    else if r < 80 then [| mset (List.map (fun k -> (k, value_of k)) keys) |]
    else Array.of_list (List.map (fun k -> single (Svc.Delete k)) keys)
  in
  { name = "serve-batch"; range; step; scale = Calib.Memory }

(* Half the range, uniformly: a Fisher-Yates prefix of [0, range). *)
let prefill_keys rng ~range =
  let a = Array.init range Fun.id in
  let n = range / 2 in
  for i = 0 to n - 1 do
    let j = i + Rng.int rng (range - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 n

(* The prefill as MSET lines of the protocol's largest batch. *)
let prefill_lines keys =
  let n = Array.length keys and w = Lf_svc.Wire.max_batch in
  List.init ((n + w - 1) / w) (fun c ->
      let lo = c * w in
      mset
        (List.init (min w (n - lo)) (fun i ->
             let k = keys.(lo + i) in
             (k, value_of k))))

(* The two independent streams a seed yields. *)
type inputs = { prefill : int array; steps : Rng.t }

let inputs spec ~seed =
  let master = Rng.create seed in
  let p = Rng.split master in
  let s = Rng.split master in
  { prefill = prefill_keys p ~range:spec.range; steps = s }

(* ---- Sequential reply model ---- *)

(* The server runs one request at a time for one client, so every served
   answer is determined by the stream.  A key is absent, present, or
   unknown after a write that failed in execution (it may or may not have
   taken effect); the next served answer on the key settles it. *)
type model = Bytes.t

let absent = '\000'
let present = '\001'
let unknown = '\002'

let model spec = Bytes.make spec.range absent

(* The answer a served request must give, when the model knows it. *)
let expected (m : model) req =
  let s = Bytes.get m (key_of req) in
  if s = unknown then None
  else
    match req with
    | Svc.Insert _ -> Some (s = absent)
    | Svc.Delete _ | Svc.Find _ -> Some (s = present)

let after_served (m : model) req found =
  let k = key_of req in
  Bytes.set m k
    (match req with
    | Svc.Insert _ -> present
    | Svc.Delete _ -> absent
    | Svc.Find _ -> if found then present else absent)

(* One key's answer, as read off the wire. *)
type answer =
  | Served of bool
  | Refused  (** rejected by admission: never executed *)
  | Failed  (** executed and gave up: may or may not have taken effect *)
  | Invalid
      (** [ERR], an unparseable reply, or a stale read: the server runs
          without replicas, so a lag-tagged answer is a wrong answer *)

(* Apply one answer; [false] when it contradicts the model. *)
let apply (m : model) req = function
  | Served b ->
      let ok = match expected m req with None -> true | Some e -> e = b in
      after_served m req b;
      ok
  | Refused -> true
  | Failed ->
      (match req with
      | Svc.Find _ -> ()
      | Svc.Insert _ | Svc.Delete _ -> Bytes.set m (key_of req) unknown);
      true
  | Invalid -> false
