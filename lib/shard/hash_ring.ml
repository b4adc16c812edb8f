(* Seeded consistent-hash ring: shards * vnodes points, each point a
   SplitMix hash of (seed, slot, vnode); a key routes to the slot owning
   the first point at or after the key's own hash, wrapping at the top.

   Both hashes are the first output of a SplitMix stream seeded with the
   salted value ([Splitmix.hash], which allocates nothing), salted
   differently so key positions are not correlated with point
   positions. *)

type t = {
  seed : int;
  slots : int;
  vnodes : int;
  points : int array;  (* ring positions, sorted ascending *)
  owners : int array;  (* owners.(i) = slot owning points.(i) *)
  assignment : int array;  (* slot -> shard *)
}

let point_salt = 0x7ee3a2d1
let key_salt = 0x1c64e6d5

let hash ~salt ~seed v =
  Lf_kernel.Splitmix.hash (salt lxor (seed * 0x01000193) lxor (v * 0x5bd1))

let create ?(vnodes = 64) ~seed ~shards () =
  if shards < 1 then invalid_arg "Hash_ring.create: shards must be >= 1";
  if vnodes < 1 then invalid_arg "Hash_ring.create: vnodes must be >= 1";
  let n = shards * vnodes in
  let pts =
    Array.init n (fun i ->
        let slot = i / vnodes and v = i mod vnodes in
        (hash ~salt:point_salt ~seed ((slot * 1_000_003) + v), slot))
  in
  Array.sort compare pts;
  {
    seed;
    slots = shards;
    vnodes;
    points = Array.map fst pts;
    owners = Array.map snd pts;
    assignment = Array.init shards (fun i -> i);
  }

let shards t = t.slots
let seed t = t.seed

let slot_of t k =
  let h = hash ~salt:key_salt ~seed:t.seed k in
  let n = Array.length t.points in
  (* First point with position >= h, else wrap to points.(0). *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  t.owners.(if !lo = n then 0 else !lo)

let owner t slot =
  if slot < 0 || slot >= t.slots then invalid_arg "Hash_ring.owner: bad slot";
  t.assignment.(slot)

let shard_of t k = t.assignment.(slot_of t k)
let assignment t = Array.copy t.assignment

let reassign t ~slot ~to_ =
  if slot < 0 || slot >= t.slots then
    invalid_arg "Hash_ring.reassign: bad slot";
  if to_ < 0 || to_ >= t.slots then
    invalid_arg "Hash_ring.reassign: bad shard";
  let assignment = Array.copy t.assignment in
  assignment.(slot) <- to_;
  { t with assignment }
