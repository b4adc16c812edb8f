(* Key generators for workloads: the distributions the experimental papers
   the paper cites sweep over (uniform over a key range, skewed/hotspot, and
   ascending sequences for end-of-list contention). *)

type t =
  | Uniform of int (* range [0, n) *)
  | Hotspot of { range : int; hot : int; hot_pct : int; base : int }
      (* hot_pct% of draws land uniformly in [base, base + hot), rest in
         [0, range).  A nonzero [base] parks the hot window away from the
         front of the key space, so hint-guided searches (EXP-17) cannot
         win just because the hot keys sit next to the head. *)
  | Zipf of {
      range : int;
      zetan : float;
      alpha : float;
      eta : float;
      half_pow : float;
    }
      (* [zetan], [alpha], [eta] and [half_pow] (0.5 ** theta) are the
         CDF-inversion constants, computed once by [zipf] *)
  | Ascending of int ref (* each draw returns the next integer *)
  | Cycle of { keys : int array; next : int ref }
      (* the fixed key set in order, wrapping — an ascending stream
         confined to chosen keys (e.g. one shard's keyspace) *)
  | Mixture of { pct : int; a : t; b : t }
      (* pct% of draws from [a], the rest from [b] — e.g. a shard-targeted
         hot set blended with uniform background traffic (EXP-23) *)

let uniform range = Uniform range
let hotspot ?(base = 0) ~range ~hot ~hot_pct () =
  if base < 0 || base + hot > range then
    invalid_arg "Keygen.hotspot: hot window outside the key range";
  Hotspot { range; hot; hot_pct; base }
let ascending () = Ascending (ref 0)

let cycle keys =
  if Array.length keys = 0 then invalid_arg "Keygen.cycle: empty key set";
  Cycle { keys = Array.copy keys; next = ref 0 }

let mixture ~pct a b =
  if pct < 0 || pct > 100 then invalid_arg "Keygen.mixture: pct outside 0..100";
  Mixture { pct; a; b }

(* Zipf via the standard CDF-inversion approximation (Gray et al.); theta in
   (0, 1), higher = more skewed.  The generator carries its constants, so a
   draw looks nothing up and generators built on different domains share
   nothing. *)
let zipf ~range ~theta =
  let zetan = ref 0.0 in
  for i = 1 to range do
    zetan := !zetan +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  let zeta2 = (1.0 /. 1.0) +. (1.0 /. Float.pow 2.0 theta) in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int range) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. !zetan))
  in
  Zipf { range; zetan = !zetan; alpha; eta; half_pow = Float.pow 0.5 theta }

let rec draw t rng =
  match t with
  | Cycle { keys; next } ->
      let v = keys.(!next mod Array.length keys) in
      incr next;
      v
  | Mixture { pct; a; b } ->
      if Lf_kernel.Splitmix.int rng 100 < pct then draw a rng else draw b rng
  | Uniform n -> Lf_kernel.Splitmix.int rng n
  | Hotspot { range; hot; hot_pct; base } ->
      if Lf_kernel.Splitmix.int rng 100 < hot_pct then
        base + Lf_kernel.Splitmix.int rng hot
      else Lf_kernel.Splitmix.int rng range
  | Zipf { range; zetan; alpha; eta; half_pow } ->
      (* [Splitmix.float]'s value from the same draw, without boxing it *)
      let u = float_of_int (Lf_kernel.Splitmix.bits rng lsr 9) *. 0x1p-53 in
      let uz = u *. zetan in
      if uz < 1.0 then 0
      else if uz < 1.0 +. half_pow then 1
      else
        let v =
          float_of_int range *. Float.pow ((eta *. u) -. eta +. 1.0) alpha
        in
        min (range - 1) (int_of_float v)
  | Ascending r ->
      let v = !r in
      incr r;
      v
