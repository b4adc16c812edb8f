(* Linear probing over [keys]/[counts], [counts.(i) = 0] marking an
   empty slot.  Deletion shifts later entries of the probe chain back
   into the hole, so a probe may always stop at the first empty slot. *)

type t = {
  mutable keys : int array;
  mutable counts : int array;
  mutable mask : int;  (* capacity - 1 *)
  mutable size : int;
}

let rec pow2_above n c = if c >= n then c else pow2_above n (2 * c)

let create n =
  let cap = pow2_above (2 * n) 8 in
  { keys = Array.make cap 0; counts = Array.make cap 0; mask = cap - 1; size = 0 }

let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let home t k = hash k land t.mask
let capacity t = t.mask + 1
let length t = t.size

(* The slot holding [k], or the empty slot that ends its probe. *)
let rec probe t k i =
  if t.counts.(i) = 0 || t.keys.(i) = k then i else probe t k ((i + 1) land t.mask)

let count t k = t.counts.(probe t k (home t k))
let mem t k = count t k > 0

let rec reinsert t keys counts i =
  if i < Array.length keys then begin
    if counts.(i) > 0 then begin
      let j = probe t keys.(i) (home t keys.(i)) in
      t.keys.(j) <- keys.(i);
      t.counts.(j) <- counts.(i)
    end;
    reinsert t keys counts (i + 1)
  end

let grow t =
  let keys = t.keys and counts = t.counts in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.counts <- Array.make cap 0;
  t.mask <- cap - 1;
  reinsert t keys counts 0

let incr t k =
  let i = probe t k (home t k) in
  let c = t.counts.(i) in
  if c > 0 then t.counts.(i) <- c + 1
  else begin
    t.keys.(i) <- k;
    t.counts.(i) <- 1;
    t.size <- t.size + 1;
    if 2 * t.size > capacity t then grow t
  end

(* Fill the hole at [hole] from the chain after it: the entry at [j]
   may move back iff [hole] lies on its probe path, from its home to
   [j]. *)
let rec shift_back t hole j =
  if t.counts.(j) > 0 then begin
    let h = home t t.keys.(j) in
    let next = (j + 1) land t.mask in
    if (j - h) land t.mask >= (j - hole) land t.mask then begin
      t.keys.(hole) <- t.keys.(j);
      t.counts.(hole) <- t.counts.(j);
      t.counts.(j) <- 0;
      shift_back t j next
    end
    else shift_back t hole next
  end

let decr t k =
  let i = probe t k (home t k) in
  let c = t.counts.(i) in
  if c > 1 then t.counts.(i) <- c - 1
  else if c = 1 then begin
    t.counts.(i) <- 0;
    t.size <- t.size - 1;
    shift_back t i ((i + 1) land t.mask)
  end

let fold f t init =
  let acc = ref init in
  for i = 0 to t.mask do
    if t.counts.(i) > 0 then acc := f t.keys.(i) t.counts.(i) !acc
  done;
  !acc
