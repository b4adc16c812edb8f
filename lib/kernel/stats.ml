(* Descriptive statistics for benchmark tables: summaries, percentiles, and
   the two model fits the experiments need (log-log slope for growth-shape
   checks, geometric fit for the skip-list tower-height distribution). *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  p9999 : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array"
  else
    let idx = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor idx) and hi = int_of_float (ceil idx) in
    let frac = idx -. floor idx in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let summarize (xs : float array) =
  let n = Array.length xs in
  if n = 0 then
    { count = 0; mean = nan; stddev = nan; min = nan; max = nan; p50 = nan;
      p90 = nan; p99 = nan; p999 = nan; p9999 = nan }
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let sum = Array.fold_left ( +. ) 0.0 xs in
    let mean = sum /. float_of_int n in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
      /. float_of_int (max 1 (n - 1))
    in
    {
      count = n;
      mean;
      stddev = sqrt var;
      min = sorted.(0);
      max = sorted.(n - 1);
      p50 = percentile sorted 0.5;
      p90 = percentile sorted 0.9;
      p99 = percentile sorted 0.99;
      p999 = percentile sorted 0.999;
      p9999 = percentile sorted 0.9999;
    }
  end

(* Histogram-friendly constructor: summarize (value, count) pairs without
   expanding them into one float per sample.  This is how the lf_obs
   log-bucketed latency histograms produce a [summary] (bucket midpoint,
   bucket count), and merging histograms then summarizing commutes with
   summarizing the merged data.  Percentiles step: the smallest value whose
   cumulative count reaches p * total. *)
let of_weighted (pairs : (float * int) array) =
  let pairs = Array.of_list (List.filter (fun (_, c) -> c > 0) (Array.to_list pairs)) in
  let n = Array.fold_left (fun a (_, c) -> a + c) 0 pairs in
  if n = 0 then
    { count = 0; mean = nan; stddev = nan; min = nan; max = nan; p50 = nan;
      p90 = nan; p99 = nan; p999 = nan; p9999 = nan }
  else begin
    let sorted = Array.copy pairs in
    Array.sort (fun (a, _) (b, _) -> Float.compare a b) sorted;
    let sum =
      Array.fold_left (fun a (v, c) -> a +. (v *. float_of_int c)) 0.0 sorted
    in
    let mean = sum /. float_of_int n in
    let var =
      Array.fold_left
        (fun a (v, c) -> a +. (float_of_int c *. ((v -. mean) ** 2.0)))
        0.0 sorted
      /. float_of_int (max 1 (n - 1))
    in
    let pct p =
      let target = p *. float_of_int n in
      let rec go i acc =
        if i >= Array.length sorted - 1 then fst sorted.(Array.length sorted - 1)
        else
          let acc = acc + snd sorted.(i) in
          if float_of_int acc >= target then fst sorted.(i) else go (i + 1) acc
      in
      go 0 0
    in
    {
      count = n;
      mean;
      stddev = sqrt var;
      min = fst sorted.(0);
      max = fst sorted.(Array.length sorted - 1);
      p50 = pct 0.5;
      p90 = pct 0.9;
      p99 = pct 0.99;
      p999 = pct 0.999;
      p9999 = pct 0.9999;
    }
  end

(* Least-squares fit of y = a + b*x; returns (a, b, r2). *)
let linear_fit (points : (float * float) array) =
  let n = float_of_int (Array.length points) in
  if Array.length points < 2 then invalid_arg "Stats.linear_fit";
  let sx = Array.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = Array.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = Array.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = Array.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let syy = Array.fold_left (fun a (_, y) -> a +. (y *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  let b = ((n *. sxy) -. (sx *. sy)) /. denom in
  let a = (sy -. (b *. sx)) /. n in
  let ss_tot = syy -. (sy *. sy /. n) in
  let ss_res =
    Array.fold_left
      (fun acc (x, y) ->
        let e = y -. (a +. (b *. x)) in
        acc +. (e *. e))
      0.0 points
  in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  (a, b, r2)

(* Fit y = c * x^k by regressing log y on log x; returns (k, r2).  Used to
   check growth shapes: linear growth gives k ~ 1, constant gives k ~ 0. *)
let loglog_slope points =
  let logs =
    Array.map
      (fun (x, y) -> (log (max x 1e-9), log (max y 1e-9)))
      points
  in
  let _, k, r2 = linear_fit logs in
  (k, r2)

(* Given a histogram h.(i) = number of samples with value i (i >= 1), return
   the maximum-likelihood success probability of a geometric distribution
   P(X = i) = (1-p)^(i-1) * p, together with the total-variation distance
   between the empirical distribution and the fitted one.  Tower heights in a
   skip list with fair coin flips should fit p = 1/2. *)
let geometric_fit (h : int array) =
  let total = Array.fold_left ( + ) 0 h in
  if total = 0 then invalid_arg "Stats.geometric_fit";
  let weighted = ref 0 in
  Array.iteri (fun i c -> weighted := !weighted + (i * c)) h;
  let mean = float_of_int !weighted /. float_of_int total in
  let p = 1.0 /. mean in
  let tv = ref 0.0 in
  Array.iteri
    (fun i c ->
      if i >= 1 then begin
        let emp = float_of_int c /. float_of_int total in
        let model = ((1.0 -. p) ** float_of_int (i - 1)) *. p in
        tv := !tv +. (abs_float (emp -. model) /. 2.0)
      end)
    h;
  (p, !tv)
