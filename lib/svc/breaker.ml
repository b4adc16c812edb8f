(* Closed / open / half-open circuit breaker over a two-bucket rotating
   stats window.  One mutable record per breaker, updated in place by
   [admit]/[observe] under the caller's lock: they run once per key call
   on the serve path, so a successor value per call would be per-request
   garbage.  A bucket is two counters and the state is a constant
   constructor plus two ints, so no path allocates. *)

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

type t = {
  cfg : config;
  mutable kind : kind;
  mutable until : int;  (* Open: reject until this tick *)
  mutable successes : int;  (* Half_open: consecutive probe successes *)
  (* The window: [cur] covers [start, start + window), [prev] the
     bucket before it. *)
  mutable cur_calls : int;
  mutable cur_failures : int;
  mutable prev_calls : int;
  mutable prev_failures : int;
  mutable start : int;
}

let create cfg ~now =
  {
    cfg;
    kind = Closed;
    until = 0;
    successes = 0;
    cur_calls = 0;
    cur_failures = 0;
    prev_calls = 0;
    prev_failures = 0;
    start = now;
  }

let state t = t.kind

let clear_window t ~start =
  t.cur_calls <- 0;
  t.cur_failures <- 0;
  t.prev_calls <- 0;
  t.prev_failures <- 0;
  t.start <- start

(* Slide the two-bucket window forward to cover [now]. *)
let rotate t ~now =
  let w = t.cfg.window in
  let elapsed = now - t.start in
  if elapsed >= 2 * w then
    (* Both buckets have aged out; realign the boundary to the grid. *)
    clear_window t ~start:(now - (elapsed mod w))
  else if elapsed >= w then begin
    t.prev_calls <- t.cur_calls;
    t.prev_failures <- t.cur_failures;
    t.cur_calls <- 0;
    t.cur_failures <- 0;
    t.start <- t.start + w
  end

(* What the window would hold at [now] once rotated, without rotating
   it: [prev] drops out after one window, [cur] after two. *)
let live t ~now ~cur ~prev =
  let elapsed = now - t.start in
  if elapsed < t.cfg.window then cur + prev
  else if elapsed < 2 * t.cfg.window then cur
  else 0

let window_calls t ~now = live t ~now ~cur:t.cur_calls ~prev:t.prev_calls

let window_failures t ~now =
  live t ~now ~cur:t.cur_failures ~prev:t.prev_failures

let admit t ~now =
  match t.kind with
  | Closed -> `Admit
  | Open ->
      if now >= t.until then begin
        t.kind <- Half_open;
        t.successes <- 0;
        `Probe
      end
      else `Reject
  | Half_open -> `Probe

let trip t ~now =
  t.kind <- Open;
  t.until <- now + t.cfg.open_for

let observe t ~now ~ok ~latency =
  let failed = (not ok) || latency > t.cfg.latency_threshold in
  match t.kind with
  | Half_open ->
      if failed then trip t ~now
      else if t.successes + 1 >= t.cfg.probes then begin
        (* Recovered: close with a clean window so stale storm counts
           cannot re-trip the breaker on its first post-recovery call. *)
        t.kind <- Closed;
        clear_window t ~start:now
      end
      else t.successes <- t.successes + 1
  | Open ->
      (* A straggler admitted before the trip; it already counted toward
         the window that opened the breaker, so ignore it. *)
      ()
  | Closed ->
      rotate t ~now;
      t.cur_calls <- t.cur_calls + 1;
      if failed then t.cur_failures <- t.cur_failures + 1;
      let calls = t.cur_calls + t.prev_calls in
      if
        calls >= t.cfg.min_calls
        && (t.cur_failures + t.prev_failures) * 100 >= t.cfg.failure_pct * calls
      then trip t ~now
