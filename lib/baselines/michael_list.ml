(* Michael's lock-free list (SPAA 2002), cited as [8] by the paper.

   Built on Harris's marking design but with a search that unlinks marked
   nodes one at a time as it goes (which is what makes it compatible with
   safe memory reclamation - moot under OCaml's GC, but we keep the
   traversal structure).  Like Harris's list, any interference makes the
   traversal restart from the head. *)

module type S = sig
  include Lf_kernel.Dict_intf.S

  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
end

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module BK = Lf_kernel.Ordered.Bounded (K)
  module Ev = Lf_kernel.Mem_event

  type key = K.t

  type 'a node = {
    key : K.t Lf_kernel.Ordered.bounded;
    elt : 'a option;
    succ : 'a succ M.aref;
  }

  and 'a succ = { right : 'a link; mark : bool }
  and 'a link = Null | Node of 'a node

  type 'a t = { head : 'a node; tail : 'a node }

  let name = "michael-list"

  let create () =
    let tail =
      { key = Pos_inf; elt = None; succ = M.make { right = Null; mark = false } }
    in
    let head =
      {
        key = Neg_inf;
        elt = None;
        succ = M.make { right = Node tail; mark = false };
      }
    in
    { head; tail }

  (* Michael's find: returns (prev, prev_succ, curr) with prev.key < k <=
     curr.key, prev unmarked at observation time and prev_succ.right = curr.
     Restarts from the head whenever the window is invalidated. *)
  let rec search t k =
    let rec advance prev prev_succ =
      match prev_succ.right with
      | Null -> (prev, prev_succ, t.tail)
      | Node curr ->
          if curr == t.tail then (prev, prev_succ, curr)
          else begin
            let curr_succ = M.get curr.succ in
            (* Re-validate the window before acting on it. *)
            let ps' = M.get prev.succ in
            if not (ps' == prev_succ) then begin
              M.event Ev.Retry;
              search t k
            end
            else if curr_succ.mark then
              (* Unlink the single marked node [curr]. *)
              let ns = { right = curr_succ.right; mark = false } in
              if M.cas prev.succ ~kind:Ev.Physical_delete ~expect:prev_succ ns
              then advance prev ns
              else begin
                M.event Ev.Retry;
                search t k
              end
            else if not (BK.lt curr.key k) then (prev, prev_succ, curr)
            else begin
              M.event Ev.Curr_update;
              advance curr curr_succ
            end
          end
    in
    advance t.head (M.get t.head.succ)

  let find t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let _, _, curr = search t kb in
    if curr != t.tail && BK.equal curr.key kb then curr.elt else None

  let mem t k = Option.is_some (find t k)

  let insert t k elt =
    let kb = Lf_kernel.Ordered.Mid k in
    let rec loop () =
      let prev, prev_succ, curr = search t kb in
      if curr != t.tail && BK.equal curr.key kb then false
      else begin
        let nn =
          { key = kb; elt = Some elt; succ = M.make { right = Node curr; mark = false } }
        in
        if
          M.cas prev.succ ~kind:Ev.Insertion ~expect:prev_succ
            { right = Node nn; mark = false }
        then true
        else begin
          M.event Ev.Retry;
          loop ()
        end
      end
    in
    loop ()

  let delete t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let rec loop () =
      let prev, prev_succ, curr = search t kb in
      if curr == t.tail || not (BK.equal curr.key kb) then false
      else begin
        let curr_succ = M.get curr.succ in
        if curr_succ.mark then begin
          M.event Ev.Retry;
          loop ()
        end
        else if
          M.cas curr.succ ~kind:Ev.Marking ~expect:curr_succ
            { curr_succ with mark = true }
        then begin
          if
            not
              (M.cas prev.succ ~kind:Ev.Physical_delete ~expect:prev_succ
                 { right = curr_succ.right; mark = false })
          then ignore (search t kb);
          true
        end
        else begin
          M.event Ev.Retry;
          loop ()
        end
      end
    in
    loop ()

  let fold t f acc =
    let rec go acc = function
      | Null -> acc
      | Node n -> (
          let s = M.get n.succ in
          match (n.key, n.elt) with
          | Mid k, Some e when not s.mark -> go (f acc k e) s.right
          | _ -> go acc s.right)
    in
    go acc (M.get t.head.succ).right

  let to_list t = List.rev (fold t (fun acc k e -> (k, e) :: acc) [])
  let length t = fold t (fun acc _ _ -> acc + 1) 0

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let rec go prev_key = function
      | Null -> fail "michael-list: tail not reached"
      | Node n ->
          if not (BK.lt prev_key n.key) then fail "michael-list: keys unsorted";
          let s = M.get n.succ in
          if n == t.tail then begin
            if s.right <> Null then fail "michael-list: tail has successor"
          end
          else begin
            if s.mark then fail "michael-list: marked node at quiescence";
            go n.key s.right
          end
    in
    go t.head.key (M.get t.head.succ).right
end

(* [Make]'s text above with [K] and [M] bound to the int order and real
   atomics, generated by this directory's dune rule (tools/specialize). *)
module Atomic_int = Michael_list_atomic_int
