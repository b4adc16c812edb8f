(* Log-bucketed (HDR-style) histogram of non-negative integer samples
   (latencies in ns, or simulator steps).

   Two-regime layout.  Values below 2^sub_bits land in exact unit buckets;
   above that, each power-of-two octave is split into 2^sub_bits
   sub-buckets, so the relative quantization error is bounded by
   2^-sub_bits (6.25% with sub_bits = 4) at every magnitude — the
   HdrHistogram layout.  From the 2^fine_msb octave upward (~1 ms in ns),
   octaves instead get 2^fine_bits sub-buckets (0.78% with fine_bits = 7):
   the extreme tail is exactly where GC pauses land, and at 6.25%
   granularity distinct multi-millisecond quantiles (p999 vs p9999, or
   p999 across op types) collapse into one representative value — EXP-19's
   byte-identical p999 columns.  Recording is a couple of shifts plus an
   increment on a preallocated int array: no allocation, no
   synchronization (one histogram per domain-local recorder state);
   [merge_into] adds bucket-wise, which is what makes per-domain
   histograms combinable into a run-wide one at collection time. *)

let sub_bits = 4
let sub = 1 lsl sub_bits (* 16 sub-buckets per octave *)
let fine_bits = 7
let fine_sub = 1 lsl fine_bits (* 128 sub-buckets per high octave *)
let fine_msb = 20 (* values >= 2^20 (~1 ms in ns) use fine octaves *)

(* Coarse region: one batch of [sub] per octave with msb in
   [sub_bits, fine_msb).  Fine region: one batch of [fine_sub] per octave
   with msb in [fine_msb, 63), enough for any 62-bit value. *)
let fine_base = sub + ((fine_msb - sub_bits) * sub)
let bucket_count = fine_base + ((63 - fine_msb) * fine_sub)

let msb v =
  let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
  go v 0

let index_of v =
  let v = if v < 0 then 0 else v in
  if v < sub then v
  else
    let m = msb v in
    if m < fine_msb then
      let shift = m - sub_bits in
      (shift * sub) + ((v lsr shift) land (sub - 1)) + sub
    else
      let shift = m - fine_bits in
      fine_base
      + ((m - fine_msb) * fine_sub)
      + ((v lsr shift) land (fine_sub - 1))

(* Lowest value mapping to bucket [i] (inverse of [index_of]). *)
let bucket_low i =
  if i < sub then i
  else if i < fine_base then
    let shift = (i - sub) / sub in
    let off = (i - sub) mod sub in
    (sub + off) lsl shift
  else
    let m = fine_msb + ((i - fine_base) / fine_sub) in
    let off = (i - fine_base) mod fine_sub in
    (fine_sub + off) lsl (m - fine_bits)

(* One past the highest value mapping to bucket [i]. *)
let bucket_high i =
  if i < sub then i + 1
  else if i < fine_base then bucket_low i + (1 lsl ((i - sub) / sub))
  else
    let m = fine_msb + ((i - fine_base) / fine_sub) in
    bucket_low i + (1 lsl (m - fine_bits))

(* Midpoint used as the bucket's representative value in summaries. *)
let bucket_mid i = (bucket_low i + bucket_high i - 1 + 1) / 2

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { counts = Array.make bucket_count 0; total = 0; sum = 0; min_v = max_int;
    max_v = 0 }

let clear t =
  Array.fill t.counts 0 bucket_count 0;
  t.total <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let add t v =
  let v = if v < 0 then 0 else v in
  let i = index_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let sum t = t.sum
let max_value t = t.max_v
let min_value t = if t.total = 0 then 0 else t.min_v

let merge_into ~into b =
  for i = 0 to bucket_count - 1 do
    into.counts.(i) <- into.counts.(i) + b.counts.(i)
  done;
  into.total <- into.total + b.total;
  into.sum <- into.sum + b.sum;
  if b.total > 0 then begin
    if b.min_v < into.min_v then into.min_v <- b.min_v;
    if b.max_v > into.max_v then into.max_v <- b.max_v
  end

(* Smallest representative value whose cumulative count reaches p*total. *)
let percentile t p =
  if t.total = 0 then invalid_arg "Hist.percentile: empty histogram";
  let target = p *. float_of_int t.total in
  let rec go i acc =
    if i >= bucket_count - 1 then float_of_int t.max_v
    else
      let acc = acc + t.counts.(i) in
      if t.counts.(i) > 0 && float_of_int acc >= target then
        float_of_int (min (bucket_mid i) t.max_v)
      else go (i + 1) acc
  in
  go 0 0

let p9999 t = percentile t 0.9999
