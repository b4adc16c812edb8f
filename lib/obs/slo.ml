(* Multi-window burn rates over a ring of fixed-width tick buckets.
   One mutex guards the ring: observations are once per completed
   request line (cold relative to the span path), queries are operator
   reads. *)

type bucket = { mutable b_start : int; mutable b_good : int; mutable b_bad : int }

type t = {
  tgt : float;
  bucket_w : int;
  buckets : bucket array;
  wins : int list;  (* ascending *)
  fast_threshold : float;
  mu : Mutex.t;
}

let create ?(fast_threshold = 10.0) ~target ~bucket ~windows () =
  if target <= 0.0 || target >= 1.0 then
    invalid_arg "Slo.create: target must be in (0, 1)";
  if bucket <= 0 then invalid_arg "Slo.create: bucket must be > 0";
  if windows = [] then invalid_arg "Slo.create: no windows";
  if List.exists (fun w -> w < bucket) windows then
    invalid_arg "Slo.create: window smaller than bucket";
  let wins = List.sort_uniq Int.compare windows in
  let max_w = List.fold_left max 0 wins in
  (* +2: one for the partially-filled current bucket, one for rounding. *)
  let n = (max_w / bucket) + 2 in
  {
    tgt = target;
    bucket_w = bucket;
    buckets = Array.init n (fun _ -> { b_start = min_int; b_good = 0; b_bad = 0 });
    wins;
    fast_threshold;
    mu = Mutex.create ();
  }

let bucket_for t ~now =
  let start = now / t.bucket_w * t.bucket_w in
  let b = t.buckets.((now / t.bucket_w) mod Array.length t.buckets) in
  if b.b_start <> start then begin
    b.b_start <- start;
    b.b_good <- 0;
    b.b_bad <- 0
  end;
  b

let observe t ~now ~good ~bad =
  Mutex.lock t.mu;
  let b = bucket_for t ~now in
  b.b_good <- b.b_good + good;
  b.b_bad <- b.b_bad + bad;
  Mutex.unlock t.mu

let totals_locked t ~now ~window =
  let lo = now - window in
  Array.fold_left
    (fun (g, b) bk ->
      if bk.b_start > lo - t.bucket_w && bk.b_start <= now then
        (g + bk.b_good, b + bk.b_bad)
      else (g, b))
    (0, 0) t.buckets

let burn_of t (good, bad) =
  let total = good + bad in
  if total = 0 then 0.0
  else float_of_int bad /. float_of_int total /. (1.0 -. t.tgt)

let burn_rate t ~now ~window =
  Mutex.lock t.mu;
  let r = burn_of t (totals_locked t ~now ~window) in
  Mutex.unlock t.mu;
  r

let fast_burn t ~now =
  burn_rate t ~now ~window:(List.hd t.wins) >= t.fast_threshold

let line t ~now =
  Mutex.lock t.mu;
  let per =
    List.map
      (fun w ->
        let (g, b) as gb = totals_locked t ~now ~window:w in
        Printf.sprintf "w%d:burn=%.2f:good=%d:bad=%d" w (burn_of t gb) g b)
      t.wins
  in
  let fast =
    burn_of t (totals_locked t ~now ~window:(List.hd t.wins))
    >= t.fast_threshold
  in
  Mutex.unlock t.mu;
  Printf.sprintf "SLO target=%g fast_burn=%b %s" t.tgt fast
    (String.concat " " per)
