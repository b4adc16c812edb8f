(* Lock-free skip list of Fomitchev & Ruppert (PODC 2004, Section 4).

   Each key is represented by a *tower* of nodes, one node per level; the
   nodes of one level form a singly-linked list maintained with the
   linked-list algorithms of Section 3 (succ descriptors with mark and flag
   bits, backlinks).  Every non-root node carries an immutable [down]
   pointer to the node one level below and a [tower_root] pointer to the
   root (level-1) node of its tower; a tower whose root is marked is
   *superfluous* and searches physically delete any superfluous node they
   encounter (three-step deletion at that level), so that chains of
   backlinks on the lower levels cannot be retraversed indefinitely.

   Insertion builds a tower bottom-up and is linearized when the root is
   inserted; if the root gets marked while upper levels are being built, the
   insertion stops (and removes the node it just added).  Deletion deletes
   the root first (linearization point: the root's marking) and then cleans
   the remaining levels top-down via a search.

   Deviations from the paper, recorded in DESIGN.md:
   - the head tower is preallocated up to [max_level] instead of growing
     through [up] pointers; FINDSTART_SL walks the preallocated array with
     the same stop condition (the level above has no content);
   - a single tail sentinel is shared by all levels (its successor field is
     never modified, so per-level tails are unobservable);
   - [create_with ~help_superfluous:false] is the EXP-9 ablation in which
     searches traverse superfluous towers instead of deleting them.  It is
     only safe when keys are never reinserted (see EXP-9), which is why it
     is not the default. *)

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module BK = Lf_kernel.Ordered.Bounded (K)
  module Ev = Lf_kernel.Mem_event
  module H = Lf_kernel.Hint.Make (M)

  type key = K.t

  type 'a node = {
    key : K.t Lf_kernel.Ordered.bounded;
    elt : 'a option; (* Some only at root nodes of real towers *)
    level : int; (* 1-based; sentinels carry their own level *)
    down : 'a link; (* Null at level 1 *)
    tower_root : 'a link; (* Null for roots and sentinels (self / none) *)
    succ : 'a succ M.aref;
    backlink : 'a link M.aref;
  }

  and 'a succ = { right : 'a link; mark : bool; flag : bool }
  and 'a link = Null | Node of 'a node

  (* A remembered tower path (Foresight-style): [levels.(l-1)] is the last
     node a search ended on at level l ([Null] = nothing remembered), [top]
     the highest level with an entry.  One path per domain lives in the
     hint cache; batches thread a private one.  Every entry is re-validated
     before use, so a path may be arbitrarily stale. *)
  type 'a hint_path = { mutable top : int; levels : 'a link array }

  type 'a t = {
    max_level : int;
    heads : 'a node array; (* heads.(l-1) is the -inf sentinel of level l *)
    tail : 'a node; (* shared +inf sentinel *)
    help_superfluous : bool;
    use_backoff : bool;
    hints : 'a hint_path H.t option; (* [None] = hints-off ablation *)
  }

  let name = "fr-skiplist"

  (* Declare a node's cells to a checked memory (Lf_check.Check_mem); a
     no-op elsewhere, and guarded by [M.stamp <> 0] so unchecked memories
     do not even pay for rendering the owner key.  Every level runs the
     Section 3 protocol independently, so each node is annotated exactly
     like a list node; the level is folded into the owner name to keep
     reports and per-level chain snapshots readable. *)
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

  let annotate_node ?(head = false) ?(sentinel = false) ~level n =
    if M.stamp n.succ <> 0 then begin
      let owner = Format.asprintf "L%d:%a" level BK.pp n.key in
      M.annotate n.succ
        (Lf_kernel.Protocol.Succ
           { owner; head; sentinel; view = succ_view_of n });
      M.annotate n.backlink
        (Lf_kernel.Protocol.Backlink { owner; view = link_view_of n })
    end

  let rng = Lf_kernel.Splitmix.domain_local 0x5ee

  let create_with ?(max_level = 24) ?(help_superfluous = true)
      ?(use_hints = true) ?(use_backoff = false) () =
    let tail =
      {
        key = Pos_inf;
        elt = None;
        level = 0;
        down = Null;
        tower_root = Null;
        succ = M.make { right = Null; mark = false; flag = false };
        backlink = M.make Null;
      }
    in
    let heads = Array.make max_level tail in
    annotate_node ~sentinel:true ~level:0 tail;
    for l = 1 to max_level do
      heads.(l - 1) <-
        {
          key = Neg_inf;
          elt = None;
          level = l;
          down = (if l = 1 then Null else Node heads.(l - 2));
          tower_root = Null;
          succ = M.make { right = Node tail; mark = false; flag = false };
          backlink = M.make Null;
        };
      annotate_node ~head:true ~sentinel:true ~level:l heads.(l - 1)
    done;
    let hints = if use_hints then Some (H.create ()) else None in
    { max_level; heads; tail; help_superfluous; use_backoff; hints }

  let create () = create_with ()
  let head_at t l = t.heads.(l - 1)

  let as_node = function
    | Node n -> n
    | Null -> invalid_arg "Fr_skiplist: dereferenced tail successor"

  let same_node l n = match l with Node m -> m == n | Null -> false

  (* A node is superfluous when the root of its tower is marked.  Roots and
     sentinels answer false here: a marked root is handled by the ordinary
     marked-node logic. *)
  let is_superfluous n =
    match n.tower_root with
    | Null -> false
    | Node r -> (M.get r.succ).mark

  (* --- The per-level linked-list machinery (Section 3 reused). --- *)

  let help_marked prev del =
    let next = (M.get del.succ).right in
    let expect = M.get prev.succ in
    if same_node expect.right del && (not expect.mark) && expect.flag then
      ignore
        (M.cas prev.succ ~kind:Ev.Physical_delete ~expect
           { right = next; mark = false; flag = false })

  let rec help_flagged t prev del =
    M.set del.backlink (Node prev);
    if not (M.get del.succ).mark then try_mark t del;
    help_marked prev del

  and try_mark t del = try_mark_n t del 0

  and try_mark_n t del fails =
    let s = M.get del.succ in
    if s.mark then ()
    else if s.flag then begin
      M.event Ev.Help;
      help_flagged t del (as_node s.right);
      try_mark_n t del fails
    end
    else if M.cas del.succ ~kind:Ev.Marking ~expect:s { s with mark = true }
    then ()
    else begin
      if t.use_backoff then M.pause fails;
      try_mark_n t del (fails + 1)
    end

  let rec backtrack p =
    if (M.get p.succ).mark then begin
      M.event Ev.Backlink_step;
      backtrack (as_node (M.get p.backlink))
    end
    else p

  (* SEARCHRIGHT: traverse one level starting at [curr] (curr.key <= k or
     curr is a head), helping physical deletions of marked nodes and - in
     the default mode - deleting superfluous towers encountered on the way.
     Returns (n1, n2) with n1.key <= k < n2.key (inclusive) or
     n1.key < k <= n2.key (exclusive), adjacent at some instant. *)
  let rec search_right t ~inclusive k curr0 =
    let goes_past key = if inclusive then BK.le key k else BK.lt key k in
    let rec loop curr next =
      if not (goes_past next.key) then (curr, next)
      else
        let nsucc = M.get next.succ in
        if nsucc.mark then begin
          let cs = M.get curr.succ in
          if (not cs.mark) || not (same_node cs.right next) then begin
            if same_node cs.right next then help_marked curr next;
            M.event Ev.Next_update;
            loop curr (as_node (M.get curr.succ).right)
          end
          else begin
            (* curr and next both marked and adjacent: step through. *)
            M.event Ev.Curr_update;
            loop next (as_node (M.get next.succ).right)
          end
        end
        else if t.help_superfluous && is_superfluous next then begin
          (* Delete the superfluous node from this level (Section 4:
             searches perform all three deletion steps if necessary). *)
          match try_flag_node t curr next with
          | Some prev, _we_flagged ->
              help_flagged t prev next;
              M.event Ev.Next_update;
              loop prev (as_node (M.get prev.succ).right)
          | None, _ ->
              M.event Ev.Next_update;
              loop curr (as_node (M.get curr.succ).right)
        end
        else begin
          M.event Ev.Curr_update;
          loop next (as_node (M.get next.succ).right)
        end
    in
    loop curr0 (as_node (M.get curr0.succ).right)

  (* TRYFLAGNODE: flag the in-level predecessor of [target], relocating via
     backlinks and a level-local search when interference hits.  Returns
     [Some prev, true] if we placed the flag, [Some prev, false] if a
     concurrent deletion had placed it, [None, false] if [target] left the
     level. *)
  and try_flag_node t prev target =
    let rec loop fails prev =
      let ps = M.get prev.succ in
      if same_node ps.right target && (not ps.mark) && ps.flag then
        (Some prev, false)
      else if
        same_node ps.right target && (not ps.mark) && (not ps.flag)
        && M.cas prev.succ ~kind:Ev.Flagging ~expect:ps { ps with flag = true }
      then (Some prev, true)
      else begin
        let ps' = M.get prev.succ in
        if same_node ps'.right target && (not ps'.mark) && ps'.flag then
          (Some prev, false)
        else begin
          if t.use_backoff then M.pause fails;
          let prev = backtrack prev in
          let prev, del = search_right t ~inclusive:false target.key prev in
          if del != target then (None, false) else loop (fails + 1) prev
        end
      end
    in
    loop 0 prev

  (* DELETENODE: the three-step deletion given a position hint. *)
  let delete_node t prev del =
    match try_flag_node t prev del with
    | Some prev, we_flagged ->
        help_flagged t prev del;
        if we_flagged then `Deleted_by_us else `Deleted_by_other
    | None, _ -> `Gone

  let level_nonempty t l =
    match (M.get (head_at t l).succ).right with
    | Node n -> n != t.tail
    | Null -> false

  (* FINDSTART_SL: the highest level that has content (or [v] if higher). *)
  let find_start t v =
    let rec go l =
      if l < t.max_level && (l < v || level_nonempty t (l + 1)) then go (l + 1)
      else l
    in
    let lvl = go 1 in
    (head_at t lvl, lvl)

  (* --- Hint paths (Section 3.2's guarantee as an optimization). ---

     A level-l search may start at any node that was once linked at level l
     and is currently unmarked there with key <= the target (< for
     exclusive searches): level l runs the Section 3 list protocol, under
     which unmarked nodes are never unlinked.  A marked candidate recovers
     leftward through its level-l backlinks; a candidate that is still
     unusable falls back to that level's head. *)

  let rec unmark_left t ~level n =
    if (M.get n.succ).mark then begin
      M.event Ev.Backlink_step;
      match M.get n.backlink with
      | Null -> head_at t level
      | Node p -> unmark_left t ~level p
    end
    else n

  (* A validated candidate from a path entry, or [None].  Superfluous
     candidates (upper nodes of a tower whose root is marked) are rejected
     even though they are unmarked at their own level: the tower may have
     been logically deleted before this operation began, so adopting one
     could descend into the dead tower and observe its old binding — a
     non-linearizable read — besides starting past a node the search is
     responsible for helping to unlink. *)
  let path_candidate t ~inclusive k ~level link =
    match link with
    | Null -> None
    | Node c ->
        let c = unmark_left t ~level c in
        if
          (not (is_superfluous c))
          && (if inclusive then BK.le c.key k else BK.lt c.key k)
        then Some c
        else None

  let mk_path t = { top = 1; levels = Array.make t.max_level Null }

  (* The calling domain's path, created on first use.  [None] iff hints are
     off. *)
  let op_path t =
    match t.hints with
    | None -> None
    | Some h -> (
        match H.load h with
        | Some p -> Some p
        | None ->
            let p = mk_path t in
            H.store h p;
            Some p)

  (* SEARCHTOLEVEL_SL: descend, searching right at each level, until level
     [v]; returns the (n1, n2) window at level v.

     Without a path (hints off) this descends from FINDSTART_SL's level
     exactly as the paper writes it.  With a path — [?path] threads one
     explicitly (batches, tower building); otherwise the domain's cached
     path is used — the search starts at [max v path.top] (self-correcting
     one level upward per search while taller content exists), at each
     level adopts whichever is further right of the descended node and the
     validated path entry, and re-records the path on the way down.
     [account] classifies the search in the hint-cache statistics; only
     domain-cache-resolved searches account.  [full] forces the descent to
     begin at FINDSTART_SL's level even with a path: the cleanup search
     after a deletion must visit every level the dead tower might occupy,
     which a path that tops out below the tower would skip. *)
  let search_to_level ?path ?(account = false) ?(full = false) t ~inclusive k v
      =
    let v = min v t.max_level in
    let with_path p used =
      let start_level =
        let s = max v (min p.top t.max_level) in
        let s = if full then max s (snd (find_start t v)) else s in
        if s < t.max_level && level_nonempty t (s + 1) then s + 1 else s
      in
      let rec descend curr level =
        let curr =
          match path_candidate t ~inclusive k ~level p.levels.(level - 1) with
          | Some c when BK.le curr.key c.key ->
              if c != curr && c != head_at t level then used := true;
              c
          | _ -> curr
        in
        let curr, next = search_right t ~inclusive k curr in
        p.levels.(level - 1) <- Node curr;
        if level > v then descend (as_node curr.down) (level - 1)
        else (curr, next)
      in
      let r = descend (head_at t start_level) start_level in
      p.top <- start_level;
      r
    in
    match path with
    | Some p -> with_path p (ref false)
    | None -> (
        match t.hints with
        | None ->
            let start, level = find_start t v in
            let rec descend curr level =
              let curr, next = search_right t ~inclusive k curr in
              if level > v then descend (as_node curr.down) (level - 1)
              else (curr, next)
            in
            descend start level
        | Some h ->
            let p, fresh =
              match H.load h with
              | Some p -> (p, false)
              | None ->
                  let p = mk_path t in
                  H.store h p;
                  (p, true)
            in
            let used = ref false in
            let r = with_path p used in
            if account then
              if fresh then H.note_miss h
              else if !used then H.note_hit h
              else H.note_stale h;
            r)

  let hint_stats t = Option.map H.totals t.hints

  (* SEARCH_SL. *)
  let find t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let curr, _ = search_to_level ~account:true t ~inclusive:true kb 1 in
    if BK.equal curr.key kb then curr.elt else None

  let mem t k = Option.is_some (find t k)

  (* INSERTNODE: insert a fresh node with [key] between [prev] and [next] at
     one level, with the linked-list INSERT loop's recovery.  Returns the
     inserted node or [`Duplicate] when a node with the same key is found at
     this level. *)
  let insert_node t ~key ~elt ~down ~tower_root ~level prev next =
    let rec attempt fails prev next =
      let ps = M.get prev.succ in
      if ps.flag then begin
        M.event Ev.Help;
        help_flagged t prev (as_node ps.right);
        relocate fails prev
      end
      else if ps.mark || not (same_node ps.right next) then recover fails prev
      else begin
        let nn =
          {
            key;
            elt;
            level;
            down;
            tower_root;
            succ = M.make { right = Node next; mark = false; flag = false };
            backlink = M.make Null;
          }
        in
        annotate_node ~level nn;
        if
          M.cas prev.succ ~kind:Ev.Insertion ~expect:ps
            { right = Node nn; mark = false; flag = false }
        then (prev, `Inserted nn)
        else begin
          if t.use_backoff then M.pause fails;
          recover (fails + 1) prev
        end
      end
    and recover fails prev =
      let ps = M.get prev.succ in
      if ps.flag then begin
        M.event Ev.Help;
        help_flagged t prev (as_node ps.right)
      end;
      relocate fails (backtrack prev)
    and relocate fails prev =
      let prev, next = search_right t ~inclusive:true key prev in
      if BK.equal prev.key key then (prev, `Duplicate)
      else attempt fails prev next
    in
    attempt 0 prev next

  let flip () = Lf_kernel.Splitmix.bool (rng ())

  let random_height t =
    let rec go h = if h < t.max_level && flip () then go (h + 1) else h in
    go 1

  (* INSERT_SL with an explicit tower height (used by tests and by the
     deterministic experiments; [insert] draws the height by coin flips).
     [?path] threads an explicit tower path (batches); otherwise the
     domain's cached path is used, so the upper-level searches of the
     ascend loop reuse the lower levels' just-recorded positions instead of
     re-descending from the top. *)
  let insert_with_path ?path t ~height k e =
    let height = max 1 (min height t.max_level) in
    let kb = Lf_kernel.Ordered.Mid k in
    let prev, next = search_to_level ?path ~account:true t ~inclusive:true kb 1 in
    if BK.equal prev.key kb then false
    else begin
      match
        insert_node t ~key:kb ~elt:(Some e) ~down:Null ~tower_root:Null
          ~level:1 prev next
      with
      | _, `Duplicate -> false
      | _, `Inserted root ->
          let path = match path with Some _ as p -> p | None -> op_path t in
          (* Build the tower bottom-up; stop if the root gets marked. *)
          let rec ascend level last =
            if level > height then true
            else if (M.get root.succ).mark then true
            else begin
              let prev, next = search_to_level ?path t ~inclusive:true kb level in
              if BK.equal prev.key kb then begin
                (* A same-key node from an old superfluous tower blocks this
                   level; the search that found it is also removing it (or
                   our own root got marked) - retry. *)
                M.event Ev.Retry;
                if (M.get root.succ).mark then true else ascend level last
              end
              else
                match
                  insert_node t ~key:kb ~elt:None ~down:(Node last)
                    ~tower_root:(Node root) ~level prev next
                with
                | _, `Duplicate ->
                    M.event Ev.Retry;
                    if (M.get root.succ).mark then true else ascend level last
                | prev', `Inserted nn ->
                    if (M.get root.succ).mark then begin
                      (* The tower became superfluous while we were building
                         it: undo the node we just added. *)
                      ignore (delete_node t prev' nn);
                      true
                    end
                    else ascend (level + 1) nn
            end
          in
          ignore (ascend 2 root);
          true
    end

  let insert_with_height t ~height k e = insert_with_path t ~height k e
  let insert t k e = insert_with_path t ~height:(random_height t) k e

  (* DELETE_SL: delete the root (linearization: its marking), then let a
     search clean the upper levels of the now-superfluous tower. *)
  let delete_with ?path t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let prev, del = search_to_level ?path ~account:true t ~inclusive:false kb 1 in
    if not (BK.equal del.key kb) then false
    else begin
      match delete_node t prev del with
      | `Deleted_by_us ->
          if t.help_superfluous && t.max_level >= 2 then begin
            let path = match path with Some _ as p -> p | None -> op_path t in
            ignore (search_to_level ?path ~full:true t ~inclusive:true kb 2)
          end;
          true
      | `Deleted_by_other | `Gone -> false
    end

  let delete t k = delete_with t k

  (* Batched operations (the Traeff-Poeter "pragmatic" pattern): process
     the batch in key order threading one private tower path, so a batch
     of b nearby keys descends from the top once and then crawls right.
     Entries are re-validated before every use, so the batch is safe under
     full concurrency; results are in the caller's original order, and each
     element linearizes independently inside the batch call. *)
  let run_batch t ~key_of ~f elems =
    let arr = Array.of_list elems in
    let n = Array.length arr in
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let c = K.compare (key_of arr.(i)) (key_of arr.(j)) in
        if c <> 0 then c else Int.compare i j)
      order;
    let results = Array.make n false in
    let path = mk_path t in
    Array.iter (fun i -> results.(i) <- f ~path arr.(i)) order;
    Array.to_list results

  let insert_batch t kvs =
    run_batch t ~key_of:fst
      ~f:(fun ~path (k, e) ->
        insert_with_path ~path t ~height:(random_height t) k e)
      kvs

  let delete_batch t ks =
    run_batch t ~key_of:Fun.id ~f:(fun ~path k -> delete_with ~path t k) ks

  let mem_batch t ks =
    run_batch t ~key_of:Fun.id
      ~f:(fun ~path k ->
        let kb = Lf_kernel.Ordered.Mid k in
        let curr, _ = search_to_level ~path t ~inclusive:true kb 1 in
        BK.equal curr.key kb && Option.is_some curr.elt)
      ks

  (* Lotan-Shavit style delete-min on the root level: claim the leftmost
     regular root via the three-step deletion.  Quiescently consistent (a
     concurrent smaller insert may be missed), exact at quiescence. *)
  let rec delete_min t =
    let head = head_at t 1 in
    match (M.get head.succ).right with
    | Null -> None
    | Node first ->
        if first == t.tail then None
        else begin
          match delete_node t head first with
          | `Deleted_by_us ->
              if t.help_superfluous && t.max_level >= 2 then
                ignore (search_to_level ~full:true t ~inclusive:true first.key 2);
              (match (first.key, first.elt) with
              | Mid k, Some e -> Some (k, e)
              | _ -> None)
          | `Deleted_by_other | `Gone -> delete_min t
        end

  (* Successor query in O(log n) expected: the smallest regular binding
     with key >= [k]. *)
  let find_ge t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let rec go () =
      let n1, n2 = search_to_level t ~inclusive:false kb 1 in
      if n2 == t.tail then None
      else if (M.get n2.succ).mark then begin
        help_marked n1 n2;
        go ()
      end
      else
        match (n2.key, n2.elt) with
        | Mid key, Some e -> Some (key, e)
        | _ -> None
    in
    go ()

  let min_binding t =
    let head = head_at t 1 in
    let rec go () =
      match (M.get head.succ).right with
      | Null -> None
      | Node n ->
          if n == t.tail then None
          else if (M.get n.succ).mark then begin
            help_marked head n;
            go ()
          end
          else (
            match (n.key, n.elt) with
            | Mid k, Some e -> Some (k, e)
            | _ -> None)
    in
    go ()

  (* Largest regular binding, located by walking right at each level before
     descending: O(log n) expected.  If the rightmost bottom node is marked
     its backlink leads to the nearest unmarked predecessor. *)
  let max_binding t =
    let rightmost curr =
      let rec go curr =
        match (M.get curr.succ).right with
        | Node n when n != t.tail -> go n
        | Node _ | Null -> curr
      in
      go curr
    in
    let start, level = find_start t 1 in
    let rec descend curr level =
      let curr = rightmost curr in
      if level > 1 then descend (as_node curr.down) (level - 1) else curr
    in
    let last = backtrack (rightmost (descend start level)) in
    match (last.key, last.elt) with
    | Mid k, Some e -> Some (k, e)
    | _ -> None

  (* Fold over regular bindings with lo <= key <= hi, in key order; weakly
     consistent under concurrency (like any lock-free iterator). *)
  let fold_range t ~lo ~hi f acc =
    if K.compare lo hi > 0 then acc
    else begin
      let hib = Lf_kernel.Ordered.Mid hi in
      let _, start = search_to_level t ~inclusive:false (Mid lo) 1 in
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

  (* --- Quiescent snapshots and validation. --- *)

  let fold t f acc =
    let rec go acc = function
      | Null -> acc
      | Node n -> (
          let s = M.get n.succ in
          match (n.key, n.elt) with
          | Mid k, Some e when not s.mark -> go (f acc k e) s.right
          | _ -> go acc s.right)
    in
    go acc (M.get (head_at t 1).succ).right

  let to_list t = List.rev (fold t (fun acc k e -> (k, e) :: acc) [])
  let length t = fold t (fun acc _ _ -> acc + 1) 0

  (* Number of non-sentinel nodes on each level; level_counts.(l-1) is the
     population of level l.  Tower-height histogram follows by differencing
     (EXP-7). *)
  let level_counts t =
    Array.init t.max_level (fun i ->
        let rec go acc = function
          | Null -> acc
          | Node n ->
              if n == t.tail then acc
              else go (acc + 1) (M.get n.succ).right
        in
        go 0 (M.get (head_at t (i + 1)).succ).right)

  (* Keys of the non-sentinel nodes physically linked on level [l], in
     order, regardless of mark state.  Quiescent/simulator introspection. *)
  let keys_at_level t l =
    let rec go acc = function
      | Null -> List.rev acc
      | Node n ->
          if n == t.tail then List.rev acc
          else
            let acc =
              match n.key with Lf_kernel.Ordered.Mid k -> k :: acc | _ -> acc
            in
            go acc (M.get n.succ).right
    in
    go [] (M.get (head_at t l).succ).right

  let height_histogram t =
    let counts = level_counts t in
    let h = Array.make (t.max_level + 1) 0 in
    for l = 1 to t.max_level do
      let this = counts.(l - 1) in
      let above = if Int.equal l t.max_level then 0 else counts.(l) in
      h.(l) <- this - above
    done;
    h

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    for l = 1 to t.max_level do
      let rec go prev = function
        | Null -> fail "fr-skiplist: level %d ends before the tail" l
        | Node n ->
            if n == t.tail then ()
            else begin
              if not (BK.lt prev.key n.key) then
                fail "fr-skiplist: level %d keys unsorted" l;
              let s = M.get n.succ in
              if t.help_superfluous && s.mark then
                fail "fr-skiplist: marked node at quiescence (level %d)" l;
              if s.flag then
                fail "fr-skiplist: flagged node at quiescence (level %d)" l;
              if not (Int.equal n.level l) then
                fail "fr-skiplist: node level tag mismatch at level %d" l;
              (match n.down with
              | Node d when l > 1 ->
                  if not (BK.equal d.key n.key) then
                    fail "fr-skiplist: down pointer key mismatch"
              | Null when l = 1 -> ()
              | _ -> fail "fr-skiplist: down pointer shape at level %d" l);
              (if t.help_superfluous then
                 match n.tower_root with
                 | Null -> if l <> 1 then fail "fr-skiplist: upper node w/o root"
                 | Node r ->
                     if (M.get r.succ).mark then
                       fail "fr-skiplist: superfluous node survives quiescence");
              go n s.right
            end
      in
      go (head_at t l) (M.get (head_at t l).succ).right
    done
end

module Atomic_int = Make (Lf_kernel.Ordered.Int) (Lf_kernel.Atomic_mem)
module Atomic_string = Make (Lf_kernel.Ordered.String) (Lf_kernel.Atomic_mem)
