(* SplitMix64 (Steele, Lea & Flood 2014): a tiny, fast, splittable PRNG.

   Used everywhere randomness is needed so that every test, simulation and
   benchmark in the repository is reproducible from a single integer seed.
   Each domain / simulated process derives its own independent stream with
   [split], so concurrent runs stay deterministic in what they draw (even if
   the interleaving of real domains is not). *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  let seed = next_int64 t in
  { state = mix seed }

(* A non-negative 62-bit integer. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* [bits (create seed)] without the stream: [mix] is inlined, so every
   [int64] stays local and unboxed, and a call allocates nothing. *)
let hash seed =
  Int64.(to_int (shift_right_logical (mix (add (of_int seed) golden)) 2))

(* Uniform in [0, n).  Rejection sampling keeps it unbiased. *)
let int t n =
  if n <= 0 then invalid_arg "Splitmix.int";
  if n land (n - 1) = 0 then bits t land (n - 1)
  else
    let rec go () =
      let r = bits t in
      let v = r mod n in
      if r - v > (max_int lsr 1) - n then go () else v
    in
    go ()

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

