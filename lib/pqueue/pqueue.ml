(* Lock-free priority queue on top of the Fomitchev-Ruppert skip list,
   in the style of Lotan & Shavit [13] and Sundell & Tsigas [14] - the
   application domain that motivated the concurrent skip-list work the paper
   relates to.

   Priorities must be unique (the underlying structure is a dictionary); the
   [Stamped] wrapper below makes any priority unique by pairing it with a
   sequence number, which is how the classic benchmarks use these queues.

   [pop_min] claims the leftmost root with the three-step deletion, so a
   delayed or failed process never blocks others.  Like the Lotan-Shavit
   queue, [pop_min] is quiescently consistent: an insert of a smaller key
   racing with a pop may be missed by that pop. *)

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module SL = Lf_skiplist.Fr_skiplist.Make (K) (M)

  type 'a t = 'a SL.t

  let create ?(max_level = 24) () = SL.create_with ~max_level ()

  let push t prio v = SL.insert t prio v
  let pop_min t = SL.delete_min t

  (* Batched push: one insert per element; results in input order.
     [pop_min_batch] pops up to [n] elements, smallest first; each pop
     claims its element exactly once, as in the unbatched case. *)
  let push_batch t pvs = SL.insert_batch t pvs

  let pop_min_batch t n =
    let rec go acc n =
      if n <= 0 then List.rev acc
      else
        match SL.delete_min t with
        | None -> List.rev acc
        | Some kv -> go (kv :: acc) (n - 1)
    in
    go [] n

  let peek_min t =
    match SL.to_list t with [] -> None | (k, v) :: _ -> Some (k, v)

  let is_empty t = SL.length t = 0
  let length t = SL.length t
end

(* Non-unique priorities: stamp each pushed element with a sequence number.
   Keys become (priority, stamp) ordered lexicographically, so FIFO among
   equal priorities. *)
module Stamped (M : Lf_kernel.Mem.S) = struct
  module Key = struct
    type t = int * int

    let compare (p1, s1) (p2, s2) =
      match Int.compare p1 p2 with 0 -> Int.compare s1 s2 | c -> c

    let pp fmt (p, s) = Format.fprintf fmt "%d#%d" p s
    let any = (0, 0)
  end

  module Q = Make (Key) (M)

  type 'a t = { q : 'a Q.t; stamp : int Atomic.t }

  let create ?max_level () =
    { q = Q.create ?max_level (); stamp = Atomic.make 0 }

  let push t prio v =
    let s = Atomic.fetch_and_add t.stamp 1 in
    (* Stamps are unique, so insertion cannot hit a duplicate. *)
    let inserted = Q.push t.q (prio, s) v in
    assert inserted

  let pop_min t =
    match Q.pop_min t.q with
    | None -> None
    | Some ((prio, _), v) -> Some (prio, v)

  let push_batch t pvs =
    let stamped =
      List.map
        (fun (prio, v) -> ((prio, Atomic.fetch_and_add t.stamp 1), v))
        pvs
    in
    List.iter (fun ok -> assert ok) (Q.push_batch t.q stamped)

  let pop_min_batch t n =
    List.map (fun ((prio, _), v) -> (prio, v)) (Q.pop_min_batch t.q n)

  let is_empty t = Q.is_empty t.q
  let length t = Q.length t.q
end

module Atomic_int = Make (Lf_kernel.Ordered.Int) (Lf_kernel.Atomic_mem)
module Stamped_atomic = Stamped (Lf_kernel.Atomic_mem)
