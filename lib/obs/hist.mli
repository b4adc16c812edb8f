(** Log-bucketed (HDR-style) histogram of non-negative integers (latency in
    ns, or simulator steps).  Unit buckets below 2{^sub_bits}, then
    2{^sub_bits} sub-buckets per power-of-two octave: relative quantization
    error is bounded by 6.25% at every magnitude — tightened to 0.78% (128
    sub-buckets per octave) from the ~1 ms octave upward, where GC pauses
    land and extreme-tail quantiles must stay distinguishable.  Recording
    allocates nothing; one histogram per domain-local recorder state,
    merged at collection time. *)

type t

val create : unit -> t
val clear : t -> unit

val add : t -> int -> unit
(** Record one sample (negatives clamp to 0).  O(1), allocation-free. *)

val count : t -> int
val sum : t -> int
val min_value : t -> int
val max_value : t -> int

val merge_into : into:t -> t -> unit
(** Bucket-wise addition: merging per-domain histograms then reading
    percentiles equals recording everything into one histogram. *)

val percentile : t -> float -> float
(** Representative (bucket-midpoint) value at quantile [p] in [\[0, 1\]];
    exact [max] for the tail bucket.
    @raise Invalid_argument on an empty histogram. *)

val p9999 : t -> float
(** [percentile t 0.9999]: the extreme-tail quantile EXP-22 tracks.
    @raise Invalid_argument on an empty histogram. *)

(**/**)

val index_of : int -> int
val bucket_low : int -> int
val bucket_high : int -> int
