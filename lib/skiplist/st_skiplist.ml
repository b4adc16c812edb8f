(* Sundell-Tsigas-style lock-free skip list (SAC 2004, the paper's citation
   [15]): Pugh-architecture nodes (one node per key with an array of marked
   next pointers, like the Fraser baseline) plus a per-node *backlink* set
   when the node is deleted.

   The recovery discipline is the one the paper characterizes in Sections 2
   and 4: "Sundell and Tsigas's design allows processes to overcome the
   interference in some cases by using backlink pointers ... a backlink is
   not guaranteed to be set when it is needed, and their backlink is useful
   on a given level only if the tower it is pointing to is sufficiently
   high."  Concretely, when a traversal at level l discovers that its
   predecessor has been deleted, it follows the predecessor's backlink IF
   the backlink is already set AND the tower it points to reaches level l;
   otherwise it falls back to a Fraser-style restart from the top.  EXP-15
   measures all three recovery classes (always / sometimes / never) under
   the tail-interference adversary. *)

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
    nexts : 'a succ M.aref array;
    backlink : 'a link M.aref; (* Null until the node is deleted *)
  }

  and 'a succ = { right : 'a link; mark : bool }
  and 'a link = Null | Node of 'a node

  type 'a t = { head : 'a node; tail : 'a node; max_level : int }

  let name = "st-skiplist"

  let rng = Lf_kernel.Splitmix.domain_local 0x57

  let create_with ?(max_level = 24) () =
    let tail =
      {
        key = Pos_inf;
        elt = None;
        nexts =
          Array.init max_level (fun _ -> M.make { right = Null; mark = false });
        backlink = M.make Null;
      }
    in
    let head =
      {
        key = Neg_inf;
        elt = None;
        nexts =
          Array.init max_level (fun _ ->
              M.make { right = Node tail; mark = false });
        backlink = M.make Null;
      }
    in
    { head; tail; max_level }

  let create () = create_with ()

  let as_node = function
    | Node n -> n
    | Null -> invalid_arg "St_skiplist: dereferenced tail successor"

  let same_node l n = match l with Node m -> m == n | Null -> false
  let height n = Array.length n.nexts

  (* Where the Fraser baseline restarts from the top, try the deleted
     predecessor's backlink first: usable only if set and tall enough for
     this level. *)
  exception Restart

  let recover_pred ~level pred =
    match M.get pred.backlink with
    | Node b when height b > level ->
        M.event Ev.Backlink_step;
        b
    | Node _ | Null -> raise Restart

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
            if prec_.mark then
              (* Predecessor deleted at this level: the ST recovery. *)
              advance (recover_pred ~level:l pred)
            else begin
              let curr = as_node prec_.right in
              let rec snip prec_ curr =
                if curr == t.tail then (prec_, curr)
                else
                  let csucc = M.get curr.nexts.(l) in
                  if csucc.mark then begin
                    if
                      M.cas pred.nexts.(l) ~kind:Ev.Physical_delete
                        ~expect:prec_
                        { right = csucc.right; mark = false }
                    then begin
                      let prec_' = M.get pred.nexts.(l) in
                      if prec_'.mark then raise Restart;
                      snip prec_' (as_node prec_'.right)
                    end
                    else begin
                      M.event Ev.Retry;
                      raise Restart
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
            end
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
      | exception Restart -> retry ()
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
            backlink = M.make Null;
          }
        in
        if
          not
            (M.cas preds.(0).nexts.(0) ~kind:Ev.Insertion ~expect:precs.(0)
               { right = Node node; mark = false })
        then begin
          M.event Ev.Retry;
          retry ()
        end
        else begin
          let rec link l =
            if l >= height then ()
            else begin
              let ns = M.get node.nexts.(l) in
              if ns.mark then ()
              else begin
                let _, preds', succs', precs' = find_window t kb in
                if succs'.(l) == node then link (l + 1)
                else if not (same_node ns.right succs'.(l)) then begin
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
                  else link l
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
    let found, preds, succs, _ = find_window t kb in
    if not found then false
    else begin
      let victim = succs.(0) in
      (* Best-effort backlink: set from the deleter's window before the
         marking - exactly the "not guaranteed to be set when needed"
         discipline (a concurrent traversal may hit the marks first). *)
      M.set victim.backlink (Node preds.(0));
      let h = height victim in
      for l = h - 1 downto 1 do
        let rec mark_level () =
          let s = M.get victim.nexts.(l) in
          if not s.mark then
            if
              not
                (M.cas victim.nexts.(l) ~kind:Ev.Marking ~expect:s
                   { s with mark = true })
            then mark_level ()
        in
        mark_level ()
      done;
      let rec mark0 () =
        let s = M.get victim.nexts.(0) in
        if s.mark then false
        else if
          M.cas victim.nexts.(0) ~kind:Ev.Marking ~expect:s
            { s with mark = true }
        then begin
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

  (* Same quiescent discipline as the Fraser baseline: marked nodes may
     survive if nothing traverses past them; unmarked nodes are strictly
     sorted per level. *)
  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    for l = 0 to t.max_level - 1 do
      let rec go prev_unmarked = function
        | Null -> fail "st-skiplist: level %d ends before tail" l
        | Node n ->
            if n == t.tail then ()
            else begin
              if Array.length n.nexts <= l then
                fail "st-skiplist: node too short for level %d" l;
              let s = M.get n.nexts.(l) in
              if s.mark then go prev_unmarked s.right
              else begin
                if not (BK.lt prev_unmarked n.key) then
                  fail "st-skiplist: level %d unsorted" l;
                go n.key s.right
              end
            end
      in
      go t.head.key (M.get t.head.nexts.(l)).right
    done
end

(* [Make]'s text above with [K] and [M] bound to the int order and real
   atomics, generated by this directory's dune rule (tools/specialize). *)
module Atomic_int = St_skiplist_atomic_int
