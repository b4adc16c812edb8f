(* Valois's lock-free linked list (PODC 1995), cited as [17] by the paper.

   Normal cells are separated by *auxiliary* nodes; all insertions and
   deletions C&S the successor field of an auxiliary node, which sidesteps
   the delete/insert race without mark bits.  A cursor is the triple
   (pre_cell, pre_aux, target).  Deleting a cell excises it with a single
   C&S on [pre_aux.next], leaving the deleted cell's own auxiliary node in
   the chain; the cell's [back_link] is then set to its predecessor and a
   cleanup pass walks back over back_links to a live cell and collapses the
   accumulated chain of adjacent auxiliary nodes.

   Two structural facts this implementation relies on (and that the tests
   check): an auxiliary node's successor field is frozen once it points to
   another auxiliary node (every C&S on it expects a cell), so collapsing a
   cell's [next] pointer past such nodes is safe; and excision leaves the
   deleted cell's auxiliary node in the chain, so traversals that entered a
   deleted region still reach the live list.

   The cost pathology the paper ascribes to this design (Section 2): chains
   of back_links and of frozen auxiliary nodes can grow with the number of
   operations, and an operation holding a stale cursor pays for the whole
   chain - executions exist with average cost Omega(m_E) even when the list
   size and contention stay O(1).  EXP-3 constructs one. *)

module type S = sig
  include Lf_kernel.Dict_intf.S

  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
end

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module BK = Lf_kernel.Ordered.Bounded (K)
  module Ev = Lf_kernel.Mem_event

  type key = K.t

  type 'a cell = {
    key : K.t Lf_kernel.Ordered.bounded;
    elt : 'a option;
    next : 'a link M.aref; (* an Aux for every cell except the last sentinel *)
    back_link : 'a link M.aref; (* Nil until deleted, then Cell predecessor *)
  }

  and 'a aux = { aux_next : 'a link M.aref }
  and 'a link = Nil | Cell of 'a cell | Aux of 'a aux

  type 'a t = { first : 'a cell; last : 'a cell }

  type 'a cursor = {
    mutable pre_cell : 'a cell;
    mutable pre_aux : 'a aux;
    mutable target : 'a cell;
    mutable target_link : 'a link;
        (* the physical link read from pre_aux.next; what C&S's expect *)
  }

  let name = "valois-list"

  let create () =
    let last =
      { key = Pos_inf; elt = None; next = M.make Nil; back_link = M.make Nil }
    in
    let aux0 = { aux_next = M.make (Cell last) } in
    let first =
      {
        key = Neg_inf;
        elt = None;
        next = M.make (Aux aux0);
        back_link = M.make Nil;
      }
    in
    { first; last }

  let aux_of = function
    | Aux a -> a
    | Cell _ | Nil -> invalid_arg "Valois_list: expected an auxiliary node"

  (* Bring the cursor up to date: make [target]/[target_link] the first cell
     reachable from [pre_aux], walking (and opportunistically collapsing)
     any chain of auxiliary nodes left behind by deletions. *)
  let update t c =
    let n = M.get c.pre_aux.aux_next in
    if n == c.target_link then ()
    else begin
      let rec go p n =
        match n with
        | Aux a ->
            M.event Ev.Aux_step;
            (* Collapse: swing pre_cell.next past the frozen aux [p]. *)
            let pn = M.get c.pre_cell.next in
            (match pn with
            | Aux x when x == p ->
                ignore
                  (M.cas c.pre_cell.next ~kind:Ev.Other_cas ~expect:pn (Aux a))
            | Aux _ | Cell _ | Nil -> ());
            go a (M.get a.aux_next)
        | Cell d ->
            c.pre_aux <- p;
            c.target <- d;
            c.target_link <- n
        | Nil ->
            c.pre_aux <- p;
            c.target <- t.last;
            c.target_link <- n
      in
      go c.pre_aux n
    end

  let cursor_at_first t =
    let a = aux_of (M.get t.first.next) in
    let c =
      { pre_cell = t.first; pre_aux = a; target = t.first; target_link = Nil }
    in
    update t c;
    c

  (* Advance the cursor one cell to the right. *)
  let step t c =
    if c.target == t.last then false
    else begin
      M.event Ev.Curr_update;
      c.pre_cell <- c.target;
      c.pre_aux <- aux_of (M.get c.target.next);
      c.target_link <- Nil;
      update t c;
      true
    end

  (* Position the cursor so that pre_cell.key < k <= target.key. *)
  let locate t k =
    let c = cursor_at_first t in
    let rec go () = if BK.lt c.target.key k && step t c then go () in
    go ();
    c

  let try_insert c q =
    (* q.next is already an Aux whose aux_next we (privately) point at the
       target before publishing. *)
    let a = aux_of (M.get q.next) in
    M.set a.aux_next c.target_link;
    M.cas c.pre_aux.aux_next ~kind:Ev.Insertion ~expect:c.target_link (Cell q)

  (* Excise [c.target]; on success set its back_link, walk back_links to a
     live cell and collapse the auxiliary chain after it. *)
  let try_delete t c =
    let d = c.target in
    if d == t.last then false
    else begin
      let n = M.get d.next in
      if
        M.cas c.pre_aux.aux_next ~kind:Ev.Physical_delete ~expect:c.target_link
          n
      then begin
        M.set d.back_link (Cell c.pre_cell);
        (* Cleanup: find the closest live predecessor ... *)
        let rec back p =
          match M.get p.back_link with
          | Cell b ->
              M.event Ev.Backlink_step;
              back b
          | Nil | Aux _ -> p
        in
        let p = back c.pre_cell in
        (* ... and collapse the chain of auxiliary nodes that follows it. *)
        (match M.get p.next with
        | Aux pa ->
            let rec collapse pa =
              match M.get pa.aux_next with
              | Aux a ->
                  M.event Ev.Aux_step;
                  let pn = M.get p.next in
                  (match pn with
                  | Aux x when x == pa ->
                      ignore
                        (M.cas p.next ~kind:Ev.Other_cas ~expect:pn (Aux a))
                  | Aux _ | Cell _ | Nil -> ());
                  collapse a
              | Cell _ | Nil -> ()
            in
            collapse pa
        | Cell _ | Nil -> ());
        true
      end
      else false
    end

  let find t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let c = locate t kb in
    if BK.equal c.target.key kb then c.target.elt else None

  let mem t k = Option.is_some (find t k)

  let insert t k elt =
    let kb = Lf_kernel.Ordered.Mid k in
    let c = locate t kb in
    let q =
      {
        key = kb;
        elt = Some elt;
        next = M.make (Aux { aux_next = M.make Nil });
        back_link = M.make Nil;
      }
    in
    let rec loop () =
      if BK.equal c.target.key kb then false
      else if try_insert c q then true
      else begin
        M.event Ev.Retry;
        update t c;
        (* The cursor may now sit before the right position again; walk
           forward if new smaller keys appeared. *)
        let rec reposition () =
          if BK.lt c.target.key kb && step t c then reposition ()
        in
        reposition ();
        loop ()
      end
    in
    loop ()

  let delete t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let c = locate t kb in
    let rec loop () =
      if not (BK.equal c.target.key kb) then false
      else if try_delete t c then true
      else begin
        M.event Ev.Retry;
        update t c;
        let rec reposition () =
          if BK.lt c.target.key kb && step t c then reposition ()
        in
        reposition ();
        loop ()
      end
    in
    loop ()

  (* Quiescent traversal of live cells. *)
  let fold t f acc =
    let rec through_aux acc l =
      match l with
      | Nil -> acc
      | Aux a -> through_aux acc (M.get a.aux_next)
      | Cell d -> (
          if d == t.last then acc
          else
            let acc =
              match (d.key, d.elt) with
              | Mid k, Some e -> f acc k e
              | _ -> acc
            in
            through_aux acc (M.get d.next))
    in
    through_aux acc (M.get t.first.next)

  let to_list t = List.rev (fold t (fun acc k e -> (k, e) :: acc) [])
  let length t = fold t (fun acc _ _ -> acc + 1) 0

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let rec go prev_key l seen_last =
      match l with
      | Nil ->
          if not seen_last then fail "valois-list: chain ends before last"
      | Aux a -> go prev_key (M.get a.aux_next) seen_last
      | Cell d ->
          if not (BK.lt prev_key d.key) then fail "valois-list: keys unsorted";
          if M.get d.back_link <> Nil then
            fail "valois-list: deleted cell still reachable at quiescence";
          if d == t.last then go d.key Nil true
          else go d.key (M.get d.next) seen_last
    in
    go t.first.key (M.get t.first.next) false
end

(* [Make]'s text above with [K] and [M] bound to the int order and real
   atomics, generated by this directory's dune rule (tools/specialize). *)
module Atomic_int = Valois_list_atomic_int
