(** Key generators: the distributions workload sweeps draw from. *)

type t

val uniform : int -> t
(** Uniform over [\[0, range)]. *)

val hotspot : ?base:int -> range:int -> hot:int -> hot_pct:int -> unit -> t
(** [hot_pct]% of draws land uniformly in [\[base, base + hot)] (default
    [base = 0]), the rest in [\[0, range)].  A nonzero [base] parks the hot
    window away from the front of the key space (EXP-17 uses the middle, so
    hint wins cannot come from the hot keys sitting next to the head).
    @raise Invalid_argument if the hot window exceeds the range. *)

val zipf : range:int -> theta:float -> t
(** Zipf-like skew via the standard CDF-inversion approximation; [theta] in
    (0, 1), higher = more skewed.  The normalization constant (a sum of
    [range] terms) is computed here, once per generator. *)

val ascending : unit -> t
(** 0, 1, 2, ... (end-of-list contention workloads). *)

val cycle : int array -> t
(** The fixed key set (copied) in array order, wrapping — an ascending
    stream confined to chosen keys.  EXP-23's hotspot walks fresh keys
    owned by one shard so the victim's keyspace balloons while the
    others' stay put.  @raise Invalid_argument if the array is empty. *)

val mixture : pct:int -> t -> t -> t
(** [mixture ~pct a b]: [pct]% of draws from [a], the rest from [b] —
    e.g. a shard-targeted hot set blended with uniform background
    traffic.  @raise Invalid_argument if [pct] is outside [0..100]. *)

val draw : t -> Lf_kernel.Splitmix.t -> int
