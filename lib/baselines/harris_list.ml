(* Harris's lock-free linked list (DISC 2001), the paper's primary
   comparison target (Section 3.1).

   Each node's successor field carries a single mark bit; deletion is
   two-step (mark, then unlink).  The defining behavioural difference from
   the Fomitchev-Ruppert list: when a C&S fails because of interference, the
   operation *restarts its search from the head of the list*.  Section 3.1
   of the paper constructs executions where this costs Omega(n-bar * c-bar)
   per operation on average; EXP-2 reproduces that execution against this
   implementation. *)

module type S = sig
  include Lf_kernel.Dict_intf.S

  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b

  module Debug : sig
    type cell = {
      key : key Lf_kernel.Ordered.bounded;
      marked : bool;
      is_sentinel : bool;
    }

    val physical_chain : 'a t -> cell list
  end
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

  let name = "harris-list"

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

  let same_node l n = match l with Node m -> m == n | Null -> false

  (* Harris's search: returns (left, left_succ, right) where left.key < k <=
     right.key, both unmarked, and at some instant left.succ was exactly
     [left_succ] with [left_succ.right = right] (chains of marked nodes in
     between are excised with one C&S, restarting from the head if it
     fails). *)
  let rec search t k =
    (* Phase 1: locate left (last unmarked node with key < k) and right
       (first node with key >= k reached through unmarked-or-marked links). *)
    let left = ref t.head in
    let left_succ = ref (M.get t.head.succ) in
    let right =
      let rec go tn tsucc =
        if not tsucc.mark then begin
          left := tn;
          left_succ := tsucc
        end;
        match tsucc.right with
        | Null -> t.tail
        | Node nxt ->
            M.event Ev.Curr_update;
            if nxt == t.tail then nxt
            else
              let nsucc = M.get nxt.succ in
              if nsucc.mark || BK.lt nxt.key k then go nxt nsucc else nxt
      in
      go t.head !left_succ
    in
    let left = !left and left_succ = !left_succ in
    if same_node left_succ.right right then
      (* Phase 2: adjacent.  If right got marked meanwhile, start over. *)
      if right != t.tail && (M.get right.succ).mark then begin
        M.event Ev.Retry;
        search t k
      end
      else (left, left_succ, right)
    else begin
      (* Phase 3: excise the marked chain between left and right. *)
      let ns = { right = Node right; mark = false } in
      if M.cas left.succ ~kind:Ev.Physical_delete ~expect:left_succ ns then
        if right != t.tail && (M.get right.succ).mark then begin
          M.event Ev.Retry;
          search t k
        end
        else (left, ns, right)
      else begin
        M.event Ev.Retry;
        search t k
      end
    end

  let find t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let _, _, right = search t kb in
    if right != t.tail && BK.equal right.key kb then right.elt else None

  let mem t k = Option.is_some (find t k)

  let insert t k elt =
    let kb = Lf_kernel.Ordered.Mid k in
    let rec loop () =
      let left, left_succ, right = search t kb in
      if right != t.tail && BK.equal right.key kb then false
      else begin
        let nn =
          { key = kb; elt = Some elt; succ = M.make { right = Node right; mark = false } }
        in
        if
          M.cas left.succ ~kind:Ev.Insertion ~expect:left_succ
            { right = Node nn; mark = false }
        then true
        else begin
          (* Restart from the head: this is the behaviour Section 3.1
             penalizes. *)
          M.event Ev.Retry;
          loop ()
        end
      end
    in
    loop ()

  let delete t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let rec loop () =
      let left, left_succ, right = search t kb in
      if right == t.tail || not (BK.equal right.key kb) then false
      else begin
        let rsucc = M.get right.succ in
        if rsucc.mark then begin
          M.event Ev.Retry;
          loop ()
        end
        else if
          M.cas right.succ ~kind:Ev.Marking ~expect:rsucc
            { rsucc with mark = true }
        then begin
          (* One attempt to unlink; on failure let a search clean up. *)
          if
            not
              (M.cas left.succ ~kind:Ev.Physical_delete ~expect:left_succ
                 { right = rsucc.right; mark = false })
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
      | Null -> fail "harris-list: tail not reached"
      | Node n ->
          if not (BK.lt prev_key n.key) then fail "harris-list: keys unsorted";
          let s = M.get n.succ in
          if n == t.tail then begin
            if s.right <> Null then fail "harris-list: tail has successor"
          end
          else begin
            if s.mark then fail "harris-list: marked node at quiescence";
            go n.key s.right
          end
    in
    go t.head.key (M.get t.head.succ).right

  (* Introspection for the deletion-protocol trace (Figure 1) and tests;
     meaningful only at quiescence or inside the simulator. *)
  module Debug = struct
    type cell = {
      key : K.t Lf_kernel.Ordered.bounded;
      marked : bool;
      is_sentinel : bool;
    }

    let physical_chain t =
      let rec go acc n =
        let s = M.get n.succ in
        let acc =
          { key = n.key; marked = s.mark; is_sentinel = n == t.head || n == t.tail }
          :: acc
        in
        match s.right with Null -> List.rev acc | Node m -> go acc m
      in
      go [] t.head
  end
end

(* [Make]'s text above with [K] and [M] bound to the int order and real
   atomics, generated by this directory's dune rule (tools/specialize). *)
module Atomic_int = Harris_list_atomic_int
