(* SplitMix64 (Steele, Lea & Flood 2014): a tiny, fast, splittable PRNG.

   Used everywhere randomness is needed so that every test, simulation and
   benchmark in the repository is reproducible from a single integer seed.
   Each domain / simulated process derives its own independent stream with
   [split], so concurrent runs stay deterministic in what they draw (even if
   the interleaving of real domains is not).

   The 64-bit state lives in an 8-byte [Bytes], read and written with
   [Bytes.get_int64_ne] / [set_int64_ne], which native code compiles to
   plain loads and stores of an unboxed [int64].  With [mix], [next_int64]
   and [bits] inlined, every [int64] of a draw stays in a register, so
   [bits], [int], [bool] and [hash] allocate nothing and [float] only its
   result.  A mutable [int64] field would box every new state. *)

type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (mix (next_int64 t))

(* A non-negative 62-bit integer. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* [bits (create seed)] without the stream. *)
let hash seed =
  Int64.(to_int (shift_right_logical (mix (add (of_int seed) golden)) 2))

(* [bits] redrawn until below [n]: unbiased, and at most two draws
   expected when [n] is more than half the range of [bits]. *)
let rec below t n =
  let r = bits t in
  if r < n then r else below t n

(* [int]'s rejection loop for a bound [n] that is not a power of two and
   at most [max_int lsr 1]: top-level, so a call builds no closure. *)
let rec reject t n =
  let r = bits t in
  let v = r mod n in
  if r - v > (max_int lsr 1) - n then reject t n else v

(* Uniform in [0, n).  Rejection sampling keeps it unbiased.  Above
   [max_int lsr 1] the acceptance bound of [reject] is negative and would
   reject every draw, so a bound that is not a power of two redraws
   instead. *)
let int t n =
  if n <= 0 then invalid_arg "Splitmix.int";
  if n > max_int lsr 1 && n land (n - 1) <> 0 then below t n
  else if n land (n - 1) = 0 then bits t land (n - 1)
  else reject t n

let float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* One independent generator per domain, lazily created from [salt] and the
   domain id.  Keeps raw [Domain.DLS] confined to the kernel (the lint's
   no-raw-dls rule) while letting each structure pick its own stream. *)
let domain_local salt =
  let key =
    Domain.DLS.new_key (fun () -> create (salt * ((Domain.self () :> int) + 1)))
  in
  fun () -> Domain.DLS.get key
