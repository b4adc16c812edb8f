(* Seeded consistent-hash ring: shards * vnodes points, each point a
   SplitMix hash of (seed, slot, vnode); a key routes to the slot owning
   the first point at or after the key's own hash, wrapping at the top.

   Both hashes are the first output of a SplitMix stream seeded with the
   salted value ([Splitmix.hash], which allocates nothing), salted
   differently so key positions are not correlated with point
   positions.  A position is the stream's top 62 bits, so it lies in
   [0, max_int].

   Lookup does not search the points.  The ring keeps a table indexed by
   a position's top [bits] bits, whose bucket [b] holds the index of the
   first point at or above the bucket's lowest position; a lookup loads
   that index and scans forward past the points of its own bucket below
   the key, which the table's size (at least two buckets per point)
   keeps to a fraction of a step on average.  [reassign] keeps the
   points, so rings derived from one another share the table. *)

type t = {
  seed : int;
  slots : int;
  vnodes : int;
  points : int array;  (* ring positions, sorted ascending *)
  owners : int array;  (* owners.(i) = slot owning points.(i) *)
  shift : int;  (* a position's bucket is [position lsr shift] *)
  first : int array;  (* bucket -> index of its first point at or above it *)
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
  let points = Array.map fst pts in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let shift = 62 - !bits in
  let first = Array.make (1 lsl !bits) n in
  let j = ref 0 in
  for b = 0 to Array.length first - 1 do
    while !j < n && points.(!j) lsr shift < b do
      incr j
    done;
    first.(b) <- !j
  done;
  {
    seed;
    slots = shards;
    vnodes;
    points;
    owners = Array.map snd pts;
    shift;
    first;
    assignment = Array.init shards (fun i -> i);
  }

let shards t = t.slots
let seed t = t.seed

let position t k = hash ~salt:key_salt ~seed:t.seed k

(* The slot owning the first point at or above position [h], else (past
   the last point) the slot owning points.(0). *)
let slot_at t h =
  let n = Array.length t.points in
  let j = ref t.first.(h lsr t.shift) in
  while !j < n && t.points.(!j) < h do
    incr j
  done;
  t.owners.(if !j = n then 0 else !j)

let slot_of t k = slot_at t (position t k)

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

module Debug = struct
  let position = position
  let points t = Array.copy t.points
  let slot_at = slot_at

  let slot_at_search t h =
    let n = Array.length t.points in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    t.owners.(if !lo = n then 0 else !lo)
end
