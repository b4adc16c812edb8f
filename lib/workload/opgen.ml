(* Operation mixes: percentage of inserts and deletes, the rest searches.
   The classic mixes from the lock-free list literature are provided as
   constants. *)

type op = Lf_lin.History.op = Find of int | Insert of int | Delete of int

(* Payload-free op kind: constant constructors, so the throughput
   runners' per-op hot path draws the key separately and dispatches on the
   kind instead of boxing an [op].  The draw itself is a [Splitmix.int]
   with bound 100, which allocates nothing. *)
type kind = Insert_k | Delete_k | Find_k

type mix = { insert_pct : int; delete_pct : int }

let write_heavy = { insert_pct = 50; delete_pct = 50 }
let mixed = { insert_pct = 20; delete_pct = 20 }
let read_mostly = { insert_pct = 5; delete_pct = 5 }

let pp_mix fmt m =
  Format.fprintf fmt "%di/%dd/%ds" m.insert_pct m.delete_pct
    (100 - m.insert_pct - m.delete_pct)

let draw_kind mix rng =
  let d = Lf_kernel.Splitmix.int rng 100 in
  if d < mix.insert_pct then Insert_k
  else if d < mix.insert_pct + mix.delete_pct then Delete_k
  else Find_k

(* Same RNG stream as the split path: key first, then the kind draw. *)
let draw mix keygen rng =
  let k = Keygen.draw keygen rng in
  match draw_kind mix rng with
  | Insert_k -> Insert k
  | Delete_k -> Delete k
  | Find_k -> Find k
