(* Lock-free sorted singly-linked list of Fomitchev & Ruppert (PODC 2004),
   Figures 3-5.

   Every node carries a [succ] descriptor { right; mark; flag } stored in a
   single C&S-able cell and a [backlink] pointer.  Deleting node B whose
   predecessor is A takes three C&S steps:

     1. flag A           : A.succ  (B,0,0) -> (B,0,1)     (TRYFLAG)
     2. mark B           : B.backlink <- A, then
                           B.succ  (C,0,0) -> (C,1,0)     (TRYMARK)
     3. unlink B, unflag : A.succ  (B,0,1) -> (C,0,0)     (HELPMARKED)

   A process that fails a C&S because its predecessor got marked follows the
   chain of backlinks to the nearest unmarked node and resumes there instead
   of restarting from the head; the flag guarantees that a backlink is never
   set to point at a marked node, which is what keeps chains of backlinks
   from growing rightward and gives the O(n(S) + c(S)) amortized bound.

   The functor is parameterized by the memory [M] so the same code runs on
   real atomics and inside the deterministic simulator.  C&S here is
   physical-equality compare-and-swap on the descriptor; since OCaml's CAS
   returns a boolean rather than the old value, the decision points that the
   paper bases on a failed C&S's return value instead re-read the cell and
   re-validate (every such branch is self-validating, see DESIGN.md).

   [create ~use_flags:false] builds the EXP-8 ablation variant: two-step
   Harris-style deletion that still sets backlinks but never flags the
   predecessor, exhibiting the rightward-growing backlink chains the flag bit
   exists to prevent. *)

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module BK = Lf_kernel.Ordered.Bounded (K)
  module Ev = Lf_kernel.Mem_event
  module H = Lf_kernel.Hint.Make (M)

  type key = K.t

  type 'a node = {
    key : K.t Lf_kernel.Ordered.bounded;
    elt : 'a option; (* [None] only for the head and tail sentinels *)
    succ : 'a succ M.aref;
    backlink : 'a link M.aref;
    anchor : 'a anchor;
  }

  and 'a succ = { right : 'a link; mark : bool; flag : bool }
  and 'a link = Null | Node of 'a node

  (* What a hint slot holds: a box that points at its node until the
     node is marked, when the winner of the marking C&S empties it.  A
     slot that outlives the node then pins two words, not the chain of
     nodes deleted after it that the node's frozen [right] and backlink
     reach.  A plain field, not a [Mem.S] cell: it is never a scheduling
     point, and a racing reader sees [Node n] or [Null], both safe
     because the candidate is validated. *)
  and 'a anchor = { mutable live : 'a link }

  (* Seeded protocol bugs for the sanitizer and watchdog tests: the first
     four corrupt one step of the deletion protocol in a way that runs
     silently on unchecked memories but trips a specific invariant
     (Lf_check.Check_mem); [No_help] disables the altruistic help at the
     three sites that encounter another operation's flag, so progress is
     no longer lock-free - an operation stuck behind a crashed flag holder
     spins forever, which the starvation watchdogs must detect. *)
  type mutation =
    | Skip_flag
    | Double_mark
    | Unlink_unflagged
    | Backlink_right
    | No_help

  type 'a t = {
    head : 'a node;
    tail : 'a node;
    use_flags : bool;
    mutation : mutation option;
    hints : 'a anchor H.t option;
        (* per-domain predecessor cache; [None] = ablation (hints off) *)
  }

  let name = "fr-list"

  (* Declare a node's cells to a checked memory.  The decoders close over
     the node so they can render its key and compare against neighbours
     with the functor's own order; neighbour cells are named by [M.stamp],
     a pure field read on checked memories.  Guarded by [M.stamp <> 0] so
     unchecked memories (where annotation is a no-op anyway) do not even
     pay for rendering the owner key on the insert path. *)
  let succ_view_of n (s : _ succ) : Lf_kernel.Protocol.succ_view =
    {
      right_id =
        (match s.right with
        | Null -> Lf_kernel.Protocol.null_id
        | Node r -> M.stamp r.succ);
      right_gt_owner =
        (match s.right with Null -> true | Node r -> BK.lt n.key r.key);
      mark = s.mark;
      flag = s.flag;
    }

  let link_view_of n (l : _ link) : Lf_kernel.Protocol.link_view =
    match l with
    | Null ->
        { target_id = Lf_kernel.Protocol.null_id; left_of_owner = true }
    | Node b -> { target_id = M.stamp b.succ; left_of_owner = BK.lt b.key n.key }

  let annotate_node ?(head = false) ?(sentinel = false) n =
    if M.stamp n.succ <> 0 then begin
      let owner = Format.asprintf "%a" BK.pp n.key in
      M.annotate n.succ
        (Lf_kernel.Protocol.Succ
           { owner; head; sentinel; view = succ_view_of n });
      M.annotate n.backlink
        (Lf_kernel.Protocol.Backlink { owner; view = link_view_of n })
    end

  let create_with ?mutation ?(use_hints = true) ~use_flags () =
    let tail =
      {
        key = Pos_inf;
        elt = None;
        succ = M.make { right = Null; mark = false; flag = false };
        backlink = M.make Null;
        anchor = { live = Null };
      }
    in
    let head =
      {
        key = Neg_inf;
        elt = None;
        succ = M.make { right = Node tail; mark = false; flag = false };
        backlink = M.make Null;
        anchor = { live = Null };
      }
    in
    (* The flagless ablation deliberately breaks the protocol; it stays
       unannotated so it can run under a checked memory too. *)
    if use_flags then begin
      annotate_node ~sentinel:true tail;
      annotate_node ~head:true ~sentinel:true head
    end;
    let hints = if use_hints then Some (H.create ()) else None in
    { head; tail; use_flags; mutation; hints }

  let create () = create_with ~use_flags:true ()

  (* Only the tail sentinel has a [Null] successor, and no routine below ever
     dereferences the successor of the tail (searches stop strictly before
     +inf and +inf is never deleted), so this cannot raise. *)
  let as_node = function
    | Node n -> n
    | Null -> invalid_arg "Fr_list: dereferenced successor of tail"

  let same_node l n = match l with Node m -> m == n | Null -> false

  (* The [No_help] mutant refuses the altruistic help at sites that find
     another operation's flag; honest code always helps. *)
  let no_help t = match t.mutation with Some No_help -> true | _ -> false

  (* HELPMARKED (Fig. 3): [del] is marked, so [del.succ] is frozen; attempt
     the physical deletion C&S on [prev].succ: (del,0,1) -> (del.right,0,0).
     In the flagless ablation the expected descriptor is (del,0,0) instead.
     If the current descriptor is not of that shape the paper's C&S would
     simply fail, so we skip the attempt. *)
  let help_marked t prev del =
    let next = (M.get del.succ).right in
    let expect = M.get prev.succ in
    if
      same_node expect.right del
      && (not expect.mark)
      && Bool.equal expect.flag t.use_flags
    then
      ignore
        (M.cas prev.succ ~kind:Ev.Physical_delete ~expect
           { right = next; mark = false; flag = false })

  (* HELPFLAGGED / TRYMARK (Fig. 4).  [prev] is flagged with successor [del]:
     set the backlink, mark [del] (helping any deletion of [del]'s own
     successor that blocks the marking), then physically delete it. *)
  let rec help_flagged t prev del =
    M.set del.backlink (Node prev);
    if not (M.get del.succ).mark then try_mark t del;
    help_marked t prev del

  and try_mark t del =
    (* Repeat until [del] is marked.  A flagged successor field means the
       deletion of [del]'s successor is in progress: help it finish first
       (the flag blocks our marking C&S). *)
    let s = M.get del.succ in
    if s.mark then ()
    else if s.flag then
      if no_help t then try_mark t del
      else begin
        M.event Ev.Help;
        help_flagged t del (as_node s.right);
        try_mark t del
      end
    else if M.cas del.succ ~kind:Ev.Marking ~expect:s { s with mark = true }
    then del.anchor.live <- Null
    else try_mark t del

  (* SEARCHFROM (Fig. 3).  Starting from [start] (whose key must be <= k),
     returns two nodes (n1, n2) such that at some instant during the search
     n1.right = n2 and n1.key <= k < n2.key.  With [inclusive:false] this is
     the paper's SearchFrom(k - eps, .): n1.key < k <= n2.key.  Marked nodes
     encountered along the way are physically deleted (helping). *)
  let search_from t ~inclusive k start =
    let goes_past key = if inclusive then BK.le key k else BK.lt key k in
    let curr = ref start in
    let next = ref (as_node (M.get start.succ).right) in
    while goes_past !next.key do
      (* Lines 3-6: loop while [next] is marked unless both [curr] and
         [next] are marked and adjacent (in which case [curr] was marked
         first and we may travel through both). *)
      let continue_inner () =
        (M.get !next.succ).mark
        &&
        let cs = M.get !curr.succ in
        (not cs.mark) || not (same_node cs.right !next)
      in
      while continue_inner () do
        let cs = M.get !curr.succ in
        if same_node cs.right !next then help_marked t !curr !next;
        next := as_node (M.get !curr.succ).right;
        M.event Ev.Next_update
      done;
      if goes_past !next.key then begin
        curr := !next;
        M.event Ev.Curr_update;
        next := as_node (M.get !curr.succ).right
      end
    done;
    (!curr, !next)

  (* Chain-of-backlinks traversal (TRYFLAG line 9-10, INSERT line 17-18):
     walk left until an unmarked node.  Backlink chains are key-decreasing
     and bottom out at the head sentinel, so this terminates. *)
  let rec backtrack p =
    if (M.get p.succ).mark then begin
      M.event Ev.Backlink_step;
      backtrack (as_node (M.get p.backlink))
    end
    else p

  (* ------------------------------------------------------------------ *)
  (* Hint-guided search starts (Section 3.2's guarantee, used as an
     optimization).  A search may begin at any node that (a) was once
     physically in the list and (b) is currently unmarked with key <= the
     target (strictly < for the exclusive searches deletions use): an
     unmarked node is still logically in the list, because physical
     unlinking requires the mark bit and marking is terminal.  A hint
     whose node was marked is dropped: its anchor is empty, and the search
     starts at the head.  A candidate found marked in the window between
     the mark and the clear, or a batch carry marked between elements,
     recovers leftward through backlinks exactly as a failed operation
     would; a Null backlink (never set on honestly marked nodes, but cheap
     to be total against) falls back to the head. *)

  let rec unmark_left t n =
    if (M.get n.succ).mark then begin
      M.event Ev.Backlink_step;
      match M.get n.backlink with Null -> t.head | Node p -> unmark_left t p
    end
    else n

  (* A validated start node for a search with target [kb], or [None] if the
     candidate (after backlink recovery) is unusable and the search must
     begin at the head. *)
  let valid_start t ~inclusive kb cand =
    let s = unmark_left t cand in
    if s == t.head then None
    else if (if inclusive then BK.le s.key kb else BK.lt s.key kb) then Some s
    else None

  let start_for t ~inclusive kb =
    match t.hints with
    | None -> t.head
    | Some h -> (
        match H.load h with
        | None ->
            H.note_miss h;
            t.head
        | Some a -> (
            let start =
              match a.live with
              | Node cand -> valid_start t ~inclusive kb cand
              | Null -> None
            in
            match start with
            | Some s ->
                H.note_hit h;
                s
            | None ->
                H.note_stale h;
                (* A stale list hint is a dead or too-far node; drop it so
                   the next operation does not re-walk its backlinks. *)
                H.clear h;
                t.head))

  (* Publish the predecessor an operation ends on as the domain's next
     hint.  Mutant structures never publish: their seeded protocol bugs can
     corrupt backlinks, and the sanitizer tests that use them want the
     honest code paths undisturbed. *)
  let publish t n =
    match (t.hints, t.mutation) with
    | Some h, None when n != t.head -> H.store h n.anchor
    | _ -> ()

  let hint_stats t = Option.map H.totals t.hints

  (* TRYFLAG (Fig. 5): flag the predecessor of [target].  Returns
     [(Some prev, true)]  - we placed the flag,
     [(Some prev, false)] - a concurrent deletion already placed it,
     [(None, false)]      - [target] is no longer in the list. *)
  let try_flag t prev target =
    let rec loop prev =
      let ps = M.get prev.succ in
      if same_node ps.right target && (not ps.mark) && ps.flag then
        (Some prev, false)
      else if
        same_node ps.right target && (not ps.mark) && (not ps.flag)
        && M.cas prev.succ ~kind:Ev.Flagging ~expect:ps { ps with flag = true }
      then (Some prev, true)
      else begin
        (* The flagging C&S failed (or was doomed): re-examine the cell to
           find out why, exactly as the paper branches on the C&S result. *)
        let ps' = M.get prev.succ in
        if same_node ps'.right target && (not ps'.mark) && ps'.flag then
          (Some prev, false)
        else begin
          let prev = backtrack prev in
          let prev, del = search_from t ~inclusive:false target.key prev in
          if del != target then (None, false) else loop prev
        end
      end
    in
    loop prev

  (* SEARCH (Fig. 3).  Each [*_from] entry point takes a validated start
     node and returns the operation's result together with a "carry": the
     node the operation ended next to, which the caller publishes as the
     domain's next hint (or threads to the next element of a batch). *)
  let find_from t kb start =
    let curr, _ = search_from t ~inclusive:true kb start in
    ((if BK.equal curr.key kb then curr.elt else None), curr)

  let find t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let r, carry = find_from t kb (start_for t ~inclusive:true kb) in
    publish t carry;
    r

  let mem t k = Option.is_some (find t k)

  (* INSERT (Fig. 5). *)
  let insert_from t kb elt start =
    let rec attempt prev next =
      let ps = M.get prev.succ in
      if ps.flag then
        if no_help t then attempt prev next
        else begin
          (* Predecessor is flagged: help the pending deletion complete. *)
          M.event Ev.Help;
          help_flagged t prev (as_node ps.right);
          relocate prev
        end
      else if ps.mark || not (same_node ps.right next) then
        (* Stale view: the C&S would fail; recover as after a failure. *)
        recover prev
      else begin
        let anchor = { live = Null } in
        let nn =
          {
            key = kb;
            elt = Some elt;
            succ = M.make { right = Node next; mark = false; flag = false };
            backlink = M.make Null;
            anchor;
          }
        in
        let link = Node nn in
        anchor.live <- link;
        if t.use_flags then annotate_node nn;
        if
          M.cas prev.succ ~kind:Ev.Insertion ~expect:ps
            { right = link; mark = false; flag = false }
        then (true, nn)
        else recover prev
      end
    and recover prev =
      (* Lines 14-18: if the failure was due to flagging, help; if due to
         marking, traverse backlinks to an unmarked node. *)
      let ps = M.get prev.succ in
      if ps.flag && not (no_help t) then begin
        M.event Ev.Help;
        help_flagged t prev (as_node ps.right)
      end;
      relocate (backtrack prev)
    and relocate prev =
      let prev, next = search_from t ~inclusive:true kb prev in
      if BK.equal prev.key kb then (false, prev) else attempt prev next
    in
    relocate start

  let insert t k elt =
    let kb = Lf_kernel.Ordered.Mid k in
    let ok, carry = insert_from t kb elt (start_for t ~inclusive:true kb) in
    publish t carry;
    ok

  (* DELETE (Fig. 4), three-step protocol.  The carry is the predecessor
     (key strictly below [kb]), usable by both inclusive and exclusive
     follow-up searches. *)
  let delete_flagged_from t kb start =
    let prev, del = search_from t ~inclusive:false kb start in
    if not (BK.equal del.key kb) then (false, prev)
    else begin
      let prev_opt, result = try_flag t prev del in
      (match prev_opt with
      | Some prev ->
          (* [result = false] means the flag is a concurrent deleter's:
             finishing it is altruistic help, which the mutant refuses. *)
          if result || not (no_help t) then help_flagged t prev del
      | None -> ());
      (result, prev)
    end

  let delete_flagged t kb =
    let ok, carry =
      delete_flagged_from t kb (start_for t ~inclusive:false kb)
    in
    publish t carry;
    ok

  (* Flagless ablation (EXP-8): Harris-style two-step deletion that still
     sets backlinks.  Because the predecessor is not pinned, a backlink can
     end up pointing at a node that is itself already marked, which lets
     chains of backlinks grow rightward - the pathology flags prevent. *)
  let delete_flagless t kb =
    let rec mark_it prev del =
      M.set del.backlink (Node prev);
      let s = M.get del.succ in
      if s.mark then false
      else if M.cas del.succ ~kind:Ev.Marking ~expect:s { s with mark = true }
      then begin
        del.anchor.live <- Null;
        true
      end
      else mark_it prev del
    in
    let prev, del = search_from t ~inclusive:false kb t.head in
    if not (BK.equal del.key kb) then false
    else begin
      let won = mark_it prev del in
      (* One direct unlink attempt; if [prev] is stale (e.g. itself marked)
         it does nothing, so fall back to a cleanup search exactly as
         Harris's delete does. *)
      let next = (M.get del.succ).right in
      let expect = M.get prev.succ in
      let unlinked =
        same_node expect.right del && (not expect.mark) && (not expect.flag)
        && M.cas prev.succ ~kind:Ev.Physical_delete ~expect
             { right = next; mark = false; flag = false }
      in
      (* Inclusive so the search traverses (and thus physically deletes) the
         marked node with key [kb] itself. *)
      if not unlinked then ignore (search_from t ~inclusive:true kb t.head);
      won
    end

  (* Seeded-bug deletions (see [mutation] above).  Single-process use in
     sanitizer tests; each returns what an honest delete would. *)
  let delete_mutant t m kb =
    let prev, del = search_from t ~inclusive:false kb t.head in
    if not (BK.equal del.key kb) then false
    else
      match m with
      | Skip_flag ->
          (* Mark without flagging the predecessor: INV 3. *)
          M.set del.backlink (Node prev);
          try_mark t del;
          true
      | Double_mark ->
          (* Run the honest three-step deletion, then C&S the frozen marked
             descriptor once more: INV 2 (marked is terminal). *)
          let won = delete_flagged t kb in
          let s = M.get del.succ in
          if s.mark then
            ignore
              (M.cas del.succ ~kind:Ev.Marking ~expect:s { s with mark = true });
          won
      | Unlink_unflagged ->
          (* Physically delete [del] without flagging or marking anything:
             INV 3 (unlink from an unflagged predecessor). *)
          let ps = M.get prev.succ in
          if same_node ps.right del && (not ps.mark) && not ps.flag then
            ignore
              (M.cas prev.succ ~kind:Ev.Physical_delete ~expect:ps
                 {
                   right = (M.get del.succ).right;
                   mark = false;
                   flag = false;
                 });
          true
      | Backlink_right -> (
          (* Point the victim's backlink at its *successor*: INV 4. *)
          match (M.get del.succ).right with
          | Node nxt ->
              M.set del.backlink (Node nxt);
              true
          | Null -> true)
      | No_help ->
          (* Not a one-shot corruption: [No_help] gates the altruistic help
             sites instead, and [delete] never routes it here. *)
          assert false

  let delete t k =
    let kb = Lf_kernel.Ordered.Mid k in
    match t.mutation with
    | Some No_help | None ->
        if t.use_flags then delete_flagged t kb else delete_flagless t kb
    | Some m -> delete_mutant t m kb

  (* ------------------------------------------------------------------ *)
  (* Batched operations (the Traeff-Poeter "pragmatic" pattern): process
     the batch in key order, carrying each element's end-of-operation
     predecessor as the next element's search start.  The carry is
     re-validated exactly like a hint (a concurrent deletion may mark it
     between elements), so batches are safe under full concurrency;
     results come back in the caller's original order. *)
  let run_batch t ~inclusive ~key_of ~f elems =
    let arr = Array.of_list elems in
    let n = Array.length arr in
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let c = K.compare (key_of arr.(i)) (key_of arr.(j)) in
        if c <> 0 then c else Int.compare i j)
      order;
    let results = Array.make n false in
    let carry = ref t.head in
    Array.iter
      (fun i ->
        let kb = Lf_kernel.Ordered.Mid (key_of arr.(i)) in
        let start =
          match valid_start t ~inclusive kb !carry with
          | Some s -> s
          | None -> t.head
        in
        let ok, c = f kb arr.(i) start in
        results.(i) <- ok;
        carry := c)
      order;
    publish t !carry;
    Array.to_list results

  let insert_batch t kvs =
    run_batch t ~inclusive:true ~key_of:fst
      ~f:(fun kb (_, e) start -> insert_from t kb e start)
      kvs

  let mem_batch t ks =
    run_batch t ~inclusive:true ~key_of:Fun.id
      ~f:(fun kb _ start ->
        let r, c = find_from t kb start in
        (Option.is_some r, c))
      ks

  let delete_batch t ks =
    match (t.mutation, t.use_flags) with
    | Some _, _ | None, false ->
        (* Ablation / mutant deletions have no [_from] variant; fall back
           to the per-element path. *)
        List.map (delete t) ks
    | None, true ->
        run_batch t ~inclusive:false ~key_of:Fun.id
          ~f:(fun kb _ start -> delete_flagged_from t kb start)
          ks

  (* Successor query: the smallest regular binding with key >= [k].  If the
     candidate is marked (logically deleted), help its physical deletion and
     retry, so the returned node was regular while adjacent to its
     predecessor. *)
  let find_ge t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let rec go prev =
      let n1, n2 = search_from t ~inclusive:false kb prev in
      if n2 == t.tail then None
      else if (M.get n2.succ).mark then begin
        help_marked t n1 n2;
        go n1
      end
      else
        match (n2.key, n2.elt) with
        | Mid key, Some e -> Some (key, e)
        | _ -> None
    in
    go t.head

  let min_binding t =
    (* Smallest key: successor of -inf.  Walk from the head, helping past
       marked nodes. *)
    let rec go () =
      match (M.get t.head.succ).right with
      | Null -> None
      | Node n ->
          if n == t.tail then None
          else if (M.get n.succ).mark then begin
            help_marked t t.head n;
            go ()
          end
          else (
            match (n.key, n.elt) with
            | Mid k, Some e -> Some (k, e)
            | _ -> None)
    in
    go ()

  (* Fold over the regular bindings with lo <= key <= hi, in key order.
     Weakly consistent under concurrency: reflects inserts/deletes that
     race with the traversal, like an iterator over any lock-free list. *)
  let fold_range t ~lo ~hi f acc =
    if K.compare lo hi > 0 then acc
    else begin
      let hib = Lf_kernel.Ordered.Mid hi in
      let _, start = search_from t ~inclusive:false (Mid lo) t.head in
      let rec go acc n =
        if n == t.tail || BK.lt hib n.key then acc
        else
          let s = M.get n.succ in
          let acc =
            match (n.key, n.elt) with
            | Mid k, Some e when not s.mark -> f acc k e
            | _ -> acc
          in
          match s.right with Null -> acc | Node m -> go acc m
      in
      go acc start
    end

  (* Quiescent snapshot: regular (unmarked) nodes in key order. *)
  let fold t f acc =
    let rec go acc l =
      match l with
      | Null -> acc
      | Node n -> (
          let s = M.get n.succ in
          match (n.key, n.elt) with
          | Mid k, Some e when not s.mark -> go (f acc k e) s.right
          | _ -> go acc s.right)
    in
    go acc (M.get t.head.succ).right

  let to_list t = List.rev (fold t (fun acc k e -> (k, e) :: acc) [])
  let iter t f = fold t (fun () k e -> f k e) ()
  let length t = fold t (fun acc _ _ -> acc + 1) 0

  (* Structural validation at quiescence: strictly sorted keys (INV 1), no
     marked or flagged node still physically linked, proper sentinels. *)
  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let rec go prev_key l =
      match l with
      | Null -> fail "fr-list: tail sentinel not reached"
      | Node n ->
          if not (BK.lt prev_key n.key) then
            fail "fr-list: keys not strictly sorted (%a then %a)" BK.pp
              prev_key BK.pp n.key;
          let s = M.get n.succ in
          if n == t.tail then begin
            if s.right <> Null then fail "fr-list: tail has a successor"
          end
          else begin
            if s.mark then
              fail "fr-list: marked node with key %a linked at quiescence"
                BK.pp n.key;
            if s.flag then
              fail "fr-list: flagged node with key %a at quiescence" BK.pp
                n.key;
            go n.key s.right
          end
    in
    go t.head.key (M.get t.head.succ).right

  (* Introspection for tests and the simulator's invariant checker.  Walking
     the physical chain is only meaningful when no step can interleave, i.e.
     at quiescence or inside the deterministic simulator. *)
  module Debug = struct
    type cell = {
      key : K.t Lf_kernel.Ordered.bounded;
      marked : bool;
      flagged : bool;
      is_sentinel : bool;
      backlink_key : K.t Lf_kernel.Ordered.bounded option;
    }

    let physical_chain t =
      let cell_of n =
        let s = M.get n.succ in
        {
          key = n.key;
          marked = s.mark;
          flagged = s.flag;
          is_sentinel = n == t.head || n == t.tail;
          backlink_key =
            (match M.get n.backlink with
            | Null -> None
            | Node b -> Some b.key);
        }
      in
      let rec go acc n =
        let acc = cell_of n :: acc in
        match (M.get n.succ).right with
        | Null -> List.rev acc
        | Node m -> go acc m
      in
      go [] t.head

    (* INV 1-5 restricted to the physically linked chain.  Returns [Error]
       with a description of the first violation found. *)
    let check_now t =
      let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
      let rec walk m_node =
        let m_succ = M.get m_node.succ in
        match m_succ.right with
        | Null ->
            if m_node == t.tail then Ok ()
            else Error "chain ends before the tail sentinel"
        | Node n ->
            let n_succ = M.get n.succ in
            let* () =
              if BK.lt m_node.key n.key then Ok ()
              else Error "INV1: keys not strictly sorted"
            in
            let* () =
              if m_succ.mark && m_succ.flag then
                Error "INV5: node both marked and flagged"
              else Ok ()
            in
            let* () =
              (* INV3/INV4: a logically deleted node (marked, with an
                 unmarked node linked to it) has a flagged predecessor and a
                 backlink pointing at that predecessor.  Only enforced in
                 flag mode; the ablation deliberately violates it. *)
              if t.use_flags && n_succ.mark && not m_succ.mark then
                if not m_succ.flag then
                  Error "INV3: predecessor of logically deleted node unflagged"
                else
                  match M.get n.backlink with
                  | Node b when b == m_node -> Ok ()
                  | Node _ -> Error "INV4: backlink not pointing at predecessor"
                  | Null -> Error "INV4: backlink unset on logically deleted node"
              else Ok ()
            in
            let* () =
              (* INV3 second half: successor of a logically deleted node is
                 unmarked. *)
              if t.use_flags && n_succ.mark && not m_succ.mark then
                match n_succ.right with
                | Null -> Ok ()
                | Node r ->
                    if (M.get r.succ).mark then
                      Error "INV3: successor of logically deleted node marked"
                    else Ok ()
              else Ok ()
            in
            walk n
      in
      walk t.head

  end
end

(* Convenience instantiations over real atomics. *)
module Atomic_int = Make (Lf_kernel.Ordered.Int) (Lf_kernel.Atomic_mem)
module Atomic_string = Make (Lf_kernel.Ordered.String) (Lf_kernel.Atomic_mem)
module Counting_int = Make (Lf_kernel.Ordered.Int) (Lf_kernel.Counting_mem)
