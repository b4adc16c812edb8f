(* Closed / open / half-open circuit breaker over a two-bucket rotating
   stats window.  Immutable values: [admit]/[observe] return successors.
   A bucket is two counters, so a closed-state observation allocates a
   few small records and nothing else: it runs once per key call on the
   serve path, so anything larger becomes per-request garbage. *)

type config = {
  window : int;
  min_calls : int;
  failure_pct : int;
  latency_threshold : int;
  open_for : int;
  probes : int;
}

let config ?(window = 1000) ?(min_calls = 10) ?(failure_pct = 50)
    ?(latency_threshold = max_int) ?(open_for = 5000) ?(probes = 3) () =
  if window <= 0 then invalid_arg "Breaker.config: window <= 0";
  if open_for <= 0 then invalid_arg "Breaker.config: open_for <= 0";
  if probes < 1 then invalid_arg "Breaker.config: probes < 1";
  if failure_pct < 0 || failure_pct > 100 then
    invalid_arg "Breaker.config: failure_pct outside [0, 100]";
  { window; min_calls; failure_pct; latency_threshold; open_for; probes }

type kind = Closed | Open | Half_open

let kind_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type bucket = { calls : int; failures : int }

let empty_bucket = { calls = 0; failures = 0 }

type st =
  | S_closed
  | S_open of int  (* reject until this tick *)
  | S_half of int  (* consecutive probe successes so far *)

type t = { cfg : config; st : st; cur : bucket; prev : bucket; start : int }

let create cfg ~now =
  { cfg; st = S_closed; cur = empty_bucket; prev = empty_bucket; start = now }

let state t =
  match t.st with S_closed -> Closed | S_open _ -> Open | S_half _ -> Half_open

(* Slide the two-bucket window forward to cover [now]. *)
let rotate t ~now =
  let w = t.cfg.window in
  let elapsed = now - t.start in
  if elapsed < w then t
  else if elapsed < 2 * w then
    { t with prev = t.cur; cur = empty_bucket; start = t.start + w }
  else
    (* Both buckets have aged out; realign the boundary to the grid. *)
    {
      t with
      prev = empty_bucket;
      cur = empty_bucket;
      start = now - (elapsed mod w);
    }

let live_calls t = t.cur.calls + t.prev.calls
let live_failures t = t.cur.failures + t.prev.failures

let window_calls t ~now = live_calls (rotate t ~now)
let window_failures t ~now = live_failures (rotate t ~now)

let admit t ~now =
  match t.st with
  | S_closed -> (t, `Admit)
  | S_open until ->
      if now >= until then ({ t with st = S_half 0 }, `Probe) else (t, `Reject)
  | S_half _ -> (t, `Probe)

let trip t ~now = { t with st = S_open (now + t.cfg.open_for) }

let observe t ~now ~ok ~latency =
  let failed = (not ok) || latency > t.cfg.latency_threshold in
  match t.st with
  | S_half n ->
      if failed then trip t ~now
      else if n + 1 >= t.cfg.probes then
        (* Recovered: close with a clean window so stale storm counts
           cannot re-trip the breaker on its first post-recovery call. *)
        {
          t with
          st = S_closed;
          cur = empty_bucket;
          prev = empty_bucket;
          start = now;
        }
      else { t with st = S_half (n + 1) }
  | S_open _ ->
      (* A straggler admitted before the trip; it already counted toward
         the window that opened the breaker, so ignore it. *)
      t
  | S_closed ->
      let t = rotate t ~now in
      let cur =
        {
          calls = t.cur.calls + 1;
          failures = (t.cur.failures + if failed then 1 else 0);
        }
      in
      let t = { t with cur } in
      if
        live_calls t >= t.cfg.min_calls
        && live_failures t * 100 >= t.cfg.failure_pct * live_calls t
      then trip t ~now
      else t
