(* Deadline- and queue-aware admission control over an EWMA service-time
   estimate, held in one mutable field that [observe] updates in place. *)

type config = { max_queue : int; est_init : int; workers : int }

let config ?(max_queue = 128) ?(est_init = 1000) ?(workers = 1) () =
  if max_queue < 0 then invalid_arg "Shed.config: negative max_queue";
  if est_init <= 0 then invalid_arg "Shed.config: est_init <= 0";
  if workers < 1 then invalid_arg "Shed.config: workers < 1";
  { max_queue; est_init; workers }

type t = { cfg : config; mutable est : int }

let create cfg = { cfg; est = cfg.est_init }
let estimate t = t.est

(* EWMA with alpha = 1/8, floored at 1 so a burst of sub-tick latencies
   cannot talk the estimate down to "everything is feasible". *)
let observe t ~latency =
  let latency = max 0 latency in
  t.est <- max 1 (((7 * t.est) + latency) / 8)

let admit t ~now ~deadline ~queue_depth =
  if queue_depth > t.cfg.max_queue then `Reject_queue
  else if Deadline.is_none deadline then `Admit
  else
    let ahead = (queue_depth / t.cfg.workers) + 1 in
    let needed = t.est * ahead in
    if Deadline.remaining ~now deadline < needed then `Reject_doomed else `Admit
