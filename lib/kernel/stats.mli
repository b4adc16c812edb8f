(** Descriptive statistics for the benchmark tables, plus the two model fits
    the experiments rely on: log-log slopes for growth-shape checks (is this
    curve constant, logarithmic, linear?) and a geometric fit for the
    skip-list tower-height distribution (EXP-7). *)

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

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [\[0, 1\]]; linear interpolation.
    The input must be sorted ascending.
    @raise Invalid_argument on an empty array. *)

val summarize : float array -> summary

val of_weighted : (float * int) array -> summary
(** Summarize (value, count) pairs without expanding them — the
    histogram-friendly constructor: feed it (bucket midpoint, bucket count)
    pairs from a log-bucketed histogram (possibly merged across domains
    with [Lf_obs.Hist.merge_into]) and get the same [summary] record the
    array path produces.  Percentiles are step percentiles (the smallest
    value whose cumulative count reaches [p * total]); zero-count pairs are
    ignored; an empty input yields [count = 0] and NaNs, like
    {!summarize}. *)

val linear_fit : (float * float) array -> float * float * float
(** Least squares [y = a + b*x]; returns [(a, b, r2)].
    @raise Invalid_argument on fewer than two points. *)

val loglog_slope : (float * float) array -> float * float
(** Fit [y = c * x^k] by regressing [log y] on [log x]; returns [(k, r2)].
    Linear growth gives [k ~ 1], constant gives [k ~ 0]. *)

val geometric_fit : int array -> float * float
(** [geometric_fit h], where [h.(i)] counts samples with value [i >= 1],
    returns the maximum-likelihood success probability [p] of a geometric
    distribution and the total-variation distance between the empirical and
    fitted distributions.  Fair-coin skip-list towers fit [p = 1/2].
    @raise Invalid_argument on an empty histogram. *)
