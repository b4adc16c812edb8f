(* Per-domain predecessor cache ("hint") for hint-guided searches.

   The paper's SEARCHFROM (Section 3.2) may start at any node that is
   unmarked and has key <= the target: an unmarked node that was once in
   the list is still logically in it (physical unlinking requires the mark
   bit, and marking is terminal), and a node found marked recovers through
   its backlink chain.  A cache of the last predecessor each domain
   touched is therefore a pure optimization: the structure validates every
   hint before use, and a hint that fails validation merely costs the
   fallback to the head.

   One cache instance belongs to one structure instance and owns its
   slots: an array indexed by a small per-domain index, so dropping the
   structure drops every domain's slot with it.  One global DLS key hands
   out the indices, and a domain gives its index back when it exits; a
   later domain that takes it inherits the slot and its counters, which is
   harmless because hints are validated and totals are sums.  [Domain.self]
   ids cannot index the array: they are never reused.  A slot is written
   only by the domain that holds its index, so the hot path needs no
   synchronization beyond the array load.

   The cache is only the slots.  An operation looks its slot up once and
   then reads, validates, counts and publishes through the slot's fields
   itself, so the hot path makes no call into this module and boxes
   nothing: a slot holds the structure's own [empty] value when it caches
   nothing.  A slot keeps whatever the structure hands it alive, so a
   structure whose nodes die must cache something that lets go of a dead
   node: [Fr_list] caches a node's anchor, a box that marking empties.
   Under a simulated memory all processes share the one real domain's
   slot, which is still safe (validation) and still deterministic (the
   slot belongs to the structure, which Explore recreates per
   schedule). *)

type stats = {
  mutable hits : int;
  mutable stale : int;
  mutable misses : int;
  mutable stores : int;
}

type 'a slot = { mutable value : 'a; stats : stats }
type 'a t = { empty : 'a; slots : 'a slot option array Atomic.t }

let mk_stats () = { hits = 0; stale = 0; misses = 0; stores = 0 }

let add_stats ~into s =
  into.hits <- into.hits + s.hits;
  into.stale <- into.stale + s.stale;
  into.misses <- into.misses + s.misses;
  into.stores <- into.stores + s.stores

(* Preallocated so the hot path never builds a string. *)
let ev_store = Mem_event.User "hint:store"
let ev_hit = Mem_event.User "hint:hit"
let ev_stale = Mem_event.User "hint:stale"
let ev_miss = Mem_event.User "hint:miss"

(* Domain indices: a lock-free free list of returned indices, and a
   counter for fresh ones when the list is empty.  The list's cells are
   immutable and never reused, so popping by C&S has no ABA. *)
let free_indices : int list Atomic.t = Atomic.make []
let next_index = Atomic.make 0

let rec take_index () =
  match Atomic.get free_indices with
  | [] -> Atomic.fetch_and_add next_index 1
  | i :: rest as old ->
      if Atomic.compare_and_set free_indices old rest then i else take_index ()

let rec give_back i =
  let old = Atomic.get free_indices in
  if not (Atomic.compare_and_set free_indices old (i :: old)) then give_back i

let index_key =
  Domain.DLS.new_key (fun () ->
      let i = take_index () in
      Domain.at_exit (fun () -> give_back i);
      i)

let create ~empty = { empty; slots = Atomic.make [||] }

(* First use in this domain: copy the array with the domain's slot
   added, and retry if another domain installed its own meanwhile. *)
let rec install t i =
  let old = Atomic.get t.slots in
  let a = Array.make (max (Array.length old) (i + 1)) None in
  Array.blit old 0 a 0 (Array.length old);
  let s = { value = t.empty; stats = mk_stats () } in
  a.(i) <- Some s;
  if Atomic.compare_and_set t.slots old a then s else install t i

let slot t =
  let i = Domain.DLS.get index_key in
  let a = Atomic.get t.slots in
  match if i < Array.length a then a.(i) else None with
  | Some s -> s
  | None -> install t i

(* Quiescent use only, like [Counting_mem.grand_total]. *)
let totals t =
  let total = mk_stats () in
  Array.iter
    (function Some s -> add_stats ~into:total s.stats | None -> ())
    (Atomic.get t.slots);
  total
