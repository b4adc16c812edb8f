(* Fraser-style lock-free skip list (Fraser 2003, the paper's citation [2];
   also Herlihy & Shavit's textbook algorithm): one node per key carrying an
   array of marked next-pointers, each level maintained Harris-style.

   The property the paper contrasts with its own design (Section 4): every
   C&S failure - during a snip, an insertion, or an upper-level link - makes
   the operation restart its search from the top of the skip list.  There
   are no backlinks and no flags; deletion marks the victim's levels
   top-down and lets searches snip marked nodes out.  EXP-13 measures the
   restart cost against the Fomitchev-Ruppert skip list's local recovery
   under the tail-interference adversary. *)

module type S = sig
  include Lf_kernel.Dict_intf.S

  val create_with : ?max_level:int -> unit -> 'a t
  val insert_with_height : 'a t -> height:int -> key -> 'a -> bool
  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
end

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module BK = Lf_kernel.Ordered.Bounded (K)
  module Ev = Lf_kernel.Mem_event

  type key = K.t

  type 'a node = {
    key : K.t Lf_kernel.Ordered.bounded;
    elt : 'a option;
    nexts : 'a succ M.aref array; (* length = tower height *)
  }

  and 'a succ = { right : 'a link; mark : bool }
  and 'a link = Null | Node of 'a node

  type 'a t = { head : 'a node; tail : 'a node; max_level : int }

  let name = "fraser-skiplist"

  let rng = Lf_kernel.Splitmix.domain_local 0xf5a

  let create_with ?(max_level = 24) () =
    let tail =
      {
        key = Pos_inf;
        elt = None;
        nexts =
          Array.init max_level (fun _ -> M.make { right = Null; mark = false });
      }
    in
    let head =
      {
        key = Neg_inf;
        elt = None;
        nexts =
          Array.init max_level (fun _ ->
              M.make { right = Node tail; mark = false });
      }
    in
    { head; tail; max_level }

  let create () = create_with ()

  let as_node = function
    | Node n -> n
    | Null -> invalid_arg "Fraser_skiplist: dereferenced tail successor"

  let same_node l n = match l with Node m -> m == n | Null -> false

  (* The Herlihy-Shavit [find]: locate, at every level, the window
     (pred, succ) with pred.key < k <= succ.key, snipping marked nodes on
     the way.  Any failed snip C&S restarts the whole search from the top -
     this is the behaviour the paper's design removes.  Returns
     (found, preds, succs, pred_records) where pred_records.(l) is the
     physical descriptor read from preds.(l), for subsequent C&S's. *)
  let find_window t k =
    let levels = t.max_level in
    let preds = Array.make levels t.head in
    let succs = Array.make levels t.tail in
    let precs = Array.make levels (M.get t.head.nexts.(0)) in
    let rec retry () =
      let rec down pred l =
        if l < 0 then ()
        else begin
          let rec advance pred =
            let prec_ = M.get pred.nexts.(l) in
            (* A marked record means [pred] itself is deleted: the window
               would be garbage and any C&S expecting this record would
               splice into an unlinked node (in the original bit-packed
               version every C&S implicitly asserts this bit is clear).
               Restart from the top. *)
            if prec_.mark then begin
              M.event Ev.Retry;
              raise Exit
            end;
            let curr = as_node prec_.right in
            (* Snip any marked successors of curr at this level. *)
            let rec snip prec_ curr =
              if curr == t.tail then (prec_, curr)
              else
                let csucc = M.get curr.nexts.(l) in
                if csucc.mark then begin
                  if
                    M.cas pred.nexts.(l) ~kind:Ev.Physical_delete ~expect:prec_
                      { right = csucc.right; mark = false }
                  then begin
                    let prec_' = M.get pred.nexts.(l) in
                    if prec_'.mark then begin
                      M.event Ev.Retry;
                      raise Exit
                    end;
                    snip prec_' (as_node prec_'.right)
                  end
                  else begin
                    M.event Ev.Retry;
                    raise Exit
                  end
                end
                else (prec_, curr)
            in
            let prec_, curr = snip prec_ curr in
            if BK.lt curr.key k then begin
              M.event Ev.Curr_update;
              advance curr
            end
            else (pred, prec_, curr)
          in
          let pred, prec_, curr = advance pred in
          preds.(l) <- pred;
          precs.(l) <- prec_;
          succs.(l) <- curr;
          down pred (l - 1)
        end
      in
      match down t.head (levels - 1) with
      | () ->
          let found =
            succs.(0) != t.tail && BK.equal succs.(0).key k
            && not (M.get succs.(0).nexts.(0)).mark
          in
          (found, preds, succs, precs)
      | exception Exit -> retry ()
    in
    retry ()

  let find t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let found, _, succs, _ = find_window t kb in
    if found then succs.(0).elt else None

  let mem t k = Option.is_some (find t k)

  let flip () = Lf_kernel.Splitmix.bool (rng ())

  let random_height t =
    let rec go h = if h < t.max_level && flip () then go (h + 1) else h in
    go 1

  let insert_with_height t ~height k e =
    let height = max 1 (min height t.max_level) in
    let kb = Lf_kernel.Ordered.Mid k in
    let rec retry () =
      let found, preds, succs, precs = find_window t kb in
      if found then false
      else begin
        let node =
          {
            key = kb;
            elt = Some e;
            nexts =
              Array.init height (fun l ->
                  M.make { right = Node succs.(l); mark = false });
          }
        in
        (* Bottom-level C&S: the linearization point. *)
        if
          not
            (M.cas preds.(0).nexts.(0) ~kind:Ev.Insertion ~expect:precs.(0)
               { right = Node node; mark = false })
        then begin
          M.event Ev.Retry;
          retry ()
        end
        else begin
          (* Link the upper levels; every failure re-searches from the
             top. *)
          let rec link l =
            if l >= height then ()
            else begin
              let ns = M.get node.nexts.(l) in
              if ns.mark then () (* deletion won: abandon the tower *)
              else begin
                let _, preds', succs', precs' = find_window t kb in
                if succs'.(l) == node then link (l + 1)
                else if not (same_node ns.right succs'.(l)) then begin
                  (* Re-point our node at the current successor first. *)
                  if
                    M.cas node.nexts.(l) ~kind:Ev.Other_cas ~expect:ns
                      { right = Node succs'.(l); mark = false }
                  then
                    if
                      M.cas preds'.(l).nexts.(l) ~kind:Ev.Insertion
                        ~expect:precs'.(l)
                        { right = Node node; mark = false }
                    then link (l + 1)
                    else begin
                      M.event Ev.Retry;
                      link l
                    end
                  else link l (* our node changed under us: re-examine *)
                end
                else if
                  M.cas preds'.(l).nexts.(l) ~kind:Ev.Insertion
                    ~expect:precs'.(l)
                    { right = Node node; mark = false }
                then link (l + 1)
                else begin
                  M.event Ev.Retry;
                  link l
                end
              end
            end
          in
          link 1;
          true
        end
      end
    in
    retry ()

  let insert t k e = insert_with_height t ~height:(random_height t) k e

  let delete t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let found, _, succs, _ = find_window t kb in
    if not found then false
    else begin
      let victim = succs.(0) in
      let height = Array.length victim.nexts in
      (* Mark the upper levels top-down. *)
      for l = height - 1 downto 1 do
        let rec mark_level () =
          let s = M.get victim.nexts.(l) in
          if not s.mark then
            if not (M.cas victim.nexts.(l) ~kind:Ev.Marking ~expect:s { s with mark = true })
            then mark_level ()
        in
        mark_level ()
      done;
      (* Bottom-level marking decides the race. *)
      let rec mark0 () =
        let s = M.get victim.nexts.(0) in
        if s.mark then false
        else if
          M.cas victim.nexts.(0) ~kind:Ev.Marking ~expect:s
            { s with mark = true }
        then begin
          (* Snip everywhere via a search. *)
          ignore (find_window t kb);
          true
        end
        else mark0 ()
      in
      mark0 ()
    end

  let fold t f acc =
    let rec go acc = function
      | Null -> acc
      | Node n ->
          if n == t.tail then acc
          else
            let s = M.get n.nexts.(0) in
            let acc =
              match (n.key, n.elt) with
              | Mid k, Some e when not s.mark -> f acc k e
              | _ -> acc
            in
            go acc s.right
    in
    go acc (M.get t.head.nexts.(0)).right

  let to_list t = List.rev (fold t (fun acc k e -> (k, e) :: acc) [])
  let length t = fold t (fun acc _ _ -> acc + 1) 0

  (* Unlike the Fomitchev-Ruppert structures, marked nodes may legitimately
     survive at quiescence here: nothing proactively removes a marked node
     that no later search happens to pass (e.g. a same-key reinsertion that
     landed in front of it).  The quiescent invariant is therefore strict
     sortedness among the *unmarked* nodes of every level, with keys
     non-decreasing overall. *)
  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    for l = 0 to t.max_level - 1 do
      let rec go prev_unmarked = function
        | Null -> fail "fraser-skiplist: level %d ends before tail" l
        | Node n ->
            if n == t.tail then ()
            else begin
              if Array.length n.nexts <= l then
                fail "fraser-skiplist: node too short for level %d" l;
              let s = M.get n.nexts.(l) in
              if s.mark then go prev_unmarked s.right
              else begin
                if not (BK.lt prev_unmarked n.key) then
                  fail "fraser-skiplist: level %d unsorted" l;
                go n.key s.right
              end
            end
      in
      go t.head.key (M.get t.head.nexts.(l)).right
    done
end

(* [Make]'s text above with [K] and [M] bound to the int order and real
   atomics, generated by this directory's dune rule (tools/specialize). *)
module Atomic_int = Fraser_skiplist_atomic_int
