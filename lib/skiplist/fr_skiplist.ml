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

   Layout.  A node is an inline record, so [right], [down], [tower_root]
   and backlinks point straight at it and no C&S site allocates a box.  A
   succ descriptor also carries [right_key], a copy of its [right] node's
   key, taken whenever the descriptor is built.  Keys are immutable, so the
   copy is exact, and a search step that stops or descends decides from the
   descriptor it already holds, without loading the next node ("Skiplists
   with Foresight").  C&S still compares whole descriptors physically:
   [right_key] never decides a C&S, and it is not a deviation from the
   paper.

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

  type key = K.t

  (* [Null] is the tail's [right], a level-1 [down], the [tower_root] of
     roots and sentinels, and an unset backlink; nothing else. *)
  type 'a node =
    | Null
    | Node of {
        key : K.t Lf_kernel.Ordered.bounded;
            (* one box shared by every node of a tower *)
        elt : 'a option; (* Some only at root nodes of real towers *)
        level : int; (* 1-based; sentinels carry their own level *)
        down : 'a node; (* Null at level 1 *)
        tower_root : 'a node; (* Null for roots and sentinels (self / none) *)
        succ : 'a succ M.aref;
        backlink : 'a node M.aref;
      }

  (* [right_key] is physically [right]'s key ([Pos_inf] past the tail). *)
  and 'a succ = {
    right : 'a node;
    right_key : K.t Lf_kernel.Ordered.bounded;
    mark : bool;
    flag : bool;
  }

  type 'a t = {
    max_level : int;
    heads : 'a node array; (* heads.(l-1) is the -inf sentinel of level l *)
    tail : 'a node; (* shared +inf sentinel *)
    help_superfluous : bool;
  }

  let name = "fr-skiplist"

  (* Field access.  A traversal only dereferences nodes it reached through
     a [right] before the tail, a [down] above level 1 or a set backlink. *)
  let null () = invalid_arg "Fr_skiplist: dereferenced a null link"
  let key_of = function Node n -> n.key | Null -> null ()
  let level_of = function Node n -> n.level | Null -> null ()
  let down_of = function Node n -> n.down | Null -> null ()
  let succ_of = function Node n -> n.succ | Null -> null ()
  let backlink_of = function Node n -> n.backlink | Null -> null ()

  (* Declare a node's cells to a checked memory (Lf_check.Check_mem); a
     no-op elsewhere, and guarded by [M.stamp <> 0] so unchecked memories
     do not even pay for rendering the owner key.  Every level runs the
     Section 3 protocol independently, so each node is annotated exactly
     like a list node; the level is folded into the owner name to keep
     reports and per-level chain snapshots readable. *)
  let succ_view_of owner (s : _ succ) : Lf_kernel.Protocol.succ_view =
    {
      right_id =
        (match s.right with
        | Null -> Lf_kernel.Protocol.null_id
        | Node r -> M.stamp r.succ);
      right_gt_owner =
        (match s.right with Null -> true | Node r -> BK.lt owner r.key);
      mark = s.mark;
      flag = s.flag;
    }

  let link_view_of owner (l : _ node) : Lf_kernel.Protocol.link_view =
    match l with
    | Null ->
        { target_id = Lf_kernel.Protocol.null_id; left_of_owner = true }
    | Node b -> { target_id = M.stamp b.succ; left_of_owner = BK.lt b.key owner }

  let annotate_node ?(head = false) ?(sentinel = false) = function
    | Node n when M.stamp n.succ <> 0 ->
        let owner = Format.asprintf "L%d:%a" n.level BK.pp n.key in
        M.annotate n.succ
          (Lf_kernel.Protocol.Succ
             { owner; head; sentinel; view = succ_view_of n.key });
        M.annotate n.backlink
          (Lf_kernel.Protocol.Backlink { owner; view = link_view_of n.key })
    | Node _ | Null -> ()

  let rng = Lf_kernel.Splitmix.domain_local 0x5ee

  let create_with ?(max_level = 24) ?(help_superfluous = true) () =
    if max_level < 1 then
      invalid_arg
        (Printf.sprintf "Fr_skiplist.create_with: max_level %d < 1" max_level);
    let tail =
      Node
        {
          key = Pos_inf;
          elt = None;
          level = 0;
          down = Null;
          tower_root = Null;
          succ =
            M.make
              { right = Null; right_key = Pos_inf; mark = false; flag = false };
          backlink = M.make Null;
        }
    in
    let heads = Array.make max_level tail in
    annotate_node ~sentinel:true tail;
    for l = 1 to max_level do
      heads.(l - 1) <-
        Node
          {
            key = Neg_inf;
            elt = None;
            level = l;
            down = (if l = 1 then Null else heads.(l - 2));
            tower_root = Null;
            succ =
              M.make
                { right = tail; right_key = Pos_inf; mark = false; flag = false };
            backlink = M.make Null;
          };
      annotate_node ~head:true ~sentinel:true heads.(l - 1)
    done;
    { max_level; heads; tail; help_superfluous }

  let create () = create_with ()
  let head_at t l = t.heads.(l - 1)

  (* A node is superfluous when the root of its tower is marked.  Roots and
     sentinels answer false here: a marked root is handled by the ordinary
     marked-node logic. *)
  let is_superfluous = function
    | Node { tower_root = Node r; _ } -> (M.get r.succ).mark
    | Node _ | Null -> false

  (* --- The per-level linked-list machinery (Section 3 reused). ---

     Every operation loop below is a top-level function with explicit
     arguments: without flambda a local recursive function is a closure
     allocated on each call, and a search would pay for one per level. *)

  let help_marked prev del =
    let ds = M.get (succ_of del) in
    let expect = M.get (succ_of prev) in
    if expect.right == del && (not expect.mark) && expect.flag then
      ignore
        (M.cas (succ_of prev) ~kind:Ev.Physical_delete ~expect
           {
             right = ds.right;
             right_key = ds.right_key;
             mark = false;
             flag = false;
           })

  let rec help_flagged t prev del =
    M.set (backlink_of del) prev;
    if not (M.get (succ_of del)).mark then try_mark t del;
    help_marked prev del

  and try_mark t del =
    let s = M.get (succ_of del) in
    if s.mark then ()
    else if s.flag then begin
      M.event Ev.Help;
      help_flagged t del s.right;
      try_mark t del
    end
    else if
      M.cas (succ_of del) ~kind:Ev.Marking ~expect:s { s with mark = true }
    then ()
    else try_mark t del

  let rec backtrack p =
    if (M.get (succ_of p)).mark then begin
      M.event Ev.Backlink_step;
      backtrack (M.get (backlink_of p))
    end
    else p

  (* SEARCHRIGHT's walk, with SEARCHTOLEVEL_SL's descent folded in.  It
     traverses the level of [curr] ([curr.level]: a walk moves only along
     one level's succ fields and backlinks), [cs] being the descriptor last
     read from [curr], helping physical deletions of marked nodes and - in
     the default mode - deleting superfluous towers on the way.  The stop
     test reads [cs.right_key], so a step that stops or descends never
     loads [cs.right].  Where SEARCHRIGHT would return above level [v], it
     steps down and walks on; at level [v] it returns the window (n1, n2)
     with n1.key <= k < n2.key (inclusive) or n1.key < k <= n2.key
     (exclusive), adjacent at some instant.  Its shared accesses are those
     of one SEARCHRIGHT per level, in the same order. *)
  let rec walk t inclusive k v curr cs =
    if
      not (if inclusive then BK.le cs.right_key k else BK.lt cs.right_key k)
    then begin
      if level_of curr > v then
        let d = down_of curr in
        walk t inclusive k v d (M.get (succ_of d))
      else (curr, cs.right)
    end
    else
      let next = cs.right in
      let nsucc = M.get (succ_of next) in
      if nsucc.mark then begin
        let cs = M.get (succ_of curr) in
        if (not cs.mark) || cs.right != next then begin
          if cs.right == next then help_marked curr next;
          M.event Ev.Next_update;
          walk t inclusive k v curr (M.get (succ_of curr))
        end
        else begin
          (* curr and next both marked and adjacent: step through. *)
          M.event Ev.Curr_update;
          walk t inclusive k v next (M.get (succ_of next))
        end
      end
      else if t.help_superfluous && is_superfluous next then begin
        (* Delete the superfluous node from this level (Section 4:
           searches perform all three deletion steps if necessary). *)
        match try_flag_node t curr next with
        | Some prev, _we_flagged ->
            help_flagged t prev next;
            M.event Ev.Next_update;
            walk t inclusive k v prev (M.get (succ_of prev))
        | None, _ ->
            M.event Ev.Next_update;
            walk t inclusive k v curr (M.get (succ_of curr))
      end
      else begin
        M.event Ev.Curr_update;
        walk t inclusive k v next (M.get (succ_of next))
      end

  (* SEARCHRIGHT: the walk confined to the level of [curr] (curr.key <= k
     or curr is a head). *)
  and search_right t ~inclusive k curr =
    walk t inclusive k (level_of curr) curr (M.get (succ_of curr))

  (* TRYFLAGNODE: flag the in-level predecessor of [target], relocating via
     backlinks and a level-local search when interference hits.  Returns
     [Some prev, true] if we placed the flag, [Some prev, false] if a
     concurrent deletion had placed it, [None, false] if [target] left the
     level. *)
  and try_flag_node t prev target =
    let ps = M.get (succ_of prev) in
    if ps.right == target && (not ps.mark) && ps.flag then (Some prev, false)
    else if
      ps.right == target && (not ps.mark) && (not ps.flag)
      && M.cas (succ_of prev) ~kind:Ev.Flagging ~expect:ps
           { ps with flag = true }
    then (Some prev, true)
    else begin
      let ps' = M.get (succ_of prev) in
      if ps'.right == target && (not ps'.mark) && ps'.flag then
        (Some prev, false)
      else begin
        let prev = backtrack prev in
        let prev, del =
          search_right t ~inclusive:false (key_of target) prev
        in
        if del != target then (None, false) else try_flag_node t prev target
      end
    end

  (* DELETENODE: the three-step deletion given a position hint. *)
  let delete_node t prev del =
    match try_flag_node t prev del with
    | Some prev, we_flagged ->
        help_flagged t prev del;
        if we_flagged then `Deleted_by_us else `Deleted_by_other
    | None, _ -> `Gone

  let level_nonempty t l = (M.get (succ_of (head_at t l))).right != t.tail

  (* FINDSTART_SL: the highest level that has content (or [v] if higher),
     scanning up from level [l]. *)
  let rec find_start t v l =
    if l < t.max_level && (l < v || level_nonempty t (l + 1)) then
      find_start t v (l + 1)
    else l

  (* SEARCHTOLEVEL_SL: one walk from FINDSTART_SL's head down to level [v];
     returns the (n1, n2) window at level v. *)
  let search_to_level t ~inclusive k v =
    let v = min v t.max_level in
    let start = head_at t (find_start t v 1) in
    walk t inclusive k v start (M.get (succ_of start))

  let hint_stats (_ : 'a t) : Lf_kernel.Hint.stats option = None

  (* SEARCH_SL. *)
  let find t k =
    let kb = Lf_kernel.Ordered.Mid k in
    match search_to_level t ~inclusive:true kb 1 with
    | Node curr, _ when BK.equal curr.key kb -> curr.elt
    | _ -> None

  let mem t k = Option.is_some (find t k)

  (* INSERTNODE: insert a fresh node with [key] between [prev] and [next] on
     prev's level, with the linked-list INSERT loop's recovery.  Returns the
     inserted node or [`Duplicate] when a node with the same key is found at
     this level. *)
  let rec insert_node t ~key ~elt ~down ~tower_root prev next =
    insert_attempt t key elt down tower_root prev next

  and insert_attempt t key elt down tower_root prev next =
    let ps = M.get (succ_of prev) in
    if ps.flag then begin
      M.event Ev.Help;
      help_flagged t prev ps.right;
      insert_relocate t key elt down tower_root prev
    end
    else if ps.mark || ps.right != next then
      insert_recover t key elt down tower_root prev
    else begin
      (* [ps.right] is [next], so [ps.right_key] is its key. *)
      let nn =
        Node
          {
            key;
            elt;
            level = level_of prev;
            down;
            tower_root;
            succ =
              M.make
                {
                  right = next;
                  right_key = ps.right_key;
                  mark = false;
                  flag = false;
                };
            backlink = M.make Null;
          }
      in
      annotate_node nn;
      if
        M.cas (succ_of prev) ~kind:Ev.Insertion ~expect:ps
          { right = nn; right_key = key; mark = false; flag = false }
      then (prev, `Inserted nn)
      else insert_recover t key elt down tower_root prev
    end

  and insert_recover t key elt down tower_root prev =
    let ps = M.get (succ_of prev) in
    if ps.flag then begin
      M.event Ev.Help;
      help_flagged t prev ps.right
    end;
    insert_relocate t key elt down tower_root (backtrack prev)

  and insert_relocate t key elt down tower_root prev =
    let prev, next = search_right t ~inclusive:true key prev in
    if BK.equal (key_of prev) key then (prev, `Duplicate)
    else insert_attempt t key elt down tower_root prev next

  let flip () = Lf_kernel.Splitmix.bool (rng ())

  let rec random_height t h =
    if h < t.max_level && flip () then random_height t (h + 1) else h

  (* Build [root]'s tower bottom-up from [level], [last] being the node
     below; stop once the root gets marked.  Each upper level is located
     by a fresh search from the top. *)
  let rec ascend t kb root height level last =
    if level <= height && not (M.get (succ_of root)).mark then begin
      let prev, next = search_to_level t ~inclusive:true kb level in
      if BK.equal (key_of prev) kb then begin
        (* A same-key node from an old superfluous tower blocks this
           level; the search that found it is also removing it (or our
           own root got marked) - retry. *)
        M.event Ev.Retry;
        if not (M.get (succ_of root)).mark then
          ascend t kb root height level last
      end
      else
        match
          insert_node t ~key:kb ~elt:None ~down:last ~tower_root:root prev
            next
        with
        | _, `Duplicate ->
            M.event Ev.Retry;
            if not (M.get (succ_of root)).mark then
              ascend t kb root height level last
        | prev', `Inserted nn ->
            if (M.get (succ_of root)).mark then
              (* The tower became superfluous while we were building it:
                 undo the node we just added. *)
              ignore (delete_node t prev' nn)
            else ascend t kb root height (level + 1) nn
    end

  (* INSERT_SL with an explicit tower height (used by tests and by the
     deterministic experiments; [insert] draws the height by coin flips). *)
  let insert_with_height t ~height k e =
    let height = max 1 (min height t.max_level) in
    let kb = Lf_kernel.Ordered.Mid k in
    let prev, next = search_to_level t ~inclusive:true kb 1 in
    if BK.equal (key_of prev) kb then false
    else begin
      match
        insert_node t ~key:kb ~elt:(Some e) ~down:Null ~tower_root:Null prev
          next
      with
      | _, `Duplicate -> false
      | _, `Inserted root ->
          ascend t kb root height 2 root;
          true
    end

  let insert t k e = insert_with_height t ~height:(random_height t 1) k e

  (* DELETE_SL: delete the root (linearization: its marking), then let a
     search clean the upper levels of the now-superfluous tower. *)
  let delete t k =
    let kb = Lf_kernel.Ordered.Mid k in
    let prev, del = search_to_level t ~inclusive:false kb 1 in
    if not (BK.equal (key_of del) kb) then false
    else begin
      match delete_node t prev del with
      | `Deleted_by_us ->
          if t.help_superfluous && t.max_level >= 2 then
            ignore (search_to_level t ~inclusive:true kb 2);
          true
      | `Deleted_by_other | `Gone -> false
    end

  (* Batched operations: one independent operation per element, in input
     order. *)
  let insert_batch t kvs = List.map (fun (k, e) -> insert t k e) kvs
  let delete_batch t ks = List.map (delete t) ks
  let mem_batch t ks = List.map (mem t) ks

  (* The binding a regular root node holds; [None] at sentinels. *)
  let binding = function
    | Node { key = Mid k; elt = Some e; _ } -> Some (k, e)
    | Node _ | Null -> None

  (* Lotan-Shavit style delete-min on the root level: claim the leftmost
     regular root via the three-step deletion.  Quiescently consistent (a
     concurrent smaller insert may be missed), exact at quiescence. *)
  let rec delete_min t =
    let head = head_at t 1 in
    let first = (M.get (succ_of head)).right in
    if first == t.tail then None
    else begin
      match delete_node t head first with
      | `Deleted_by_us ->
          if t.help_superfluous && t.max_level >= 2 then
            ignore (search_to_level t ~inclusive:true (key_of first) 2);
          binding first
      | `Deleted_by_other | `Gone -> delete_min t
    end

  (* Successor query in O(log n) expected: the smallest regular binding
     with key >= [kb]. *)
  let rec find_ge_bounded t kb =
    let n1, n2 = search_to_level t ~inclusive:false kb 1 in
    if n2 == t.tail then None
    else if (M.get (succ_of n2)).mark then begin
      help_marked n1 n2;
      find_ge_bounded t kb
    end
    else binding n2

  let find_ge t k = find_ge_bounded t (Lf_kernel.Ordered.Mid k)

  let rec min_binding t =
    let head = head_at t 1 in
    let n = (M.get (succ_of head)).right in
    if n == t.tail then None
    else if (M.get (succ_of n)).mark then begin
      help_marked head n;
      min_binding t
    end
    else binding n

  let rec rightmost t curr =
    let n = (M.get (succ_of curr)).right in
    if n == t.tail then curr else rightmost t n

  let rec rightmost_descend t curr =
    let curr = rightmost t curr in
    if level_of curr > 1 then rightmost_descend t (down_of curr) else curr

  (* Largest regular binding, located by walking right at each level before
     descending: O(log n) expected.  If the rightmost bottom node is marked
     its backlink leads to the nearest unmarked predecessor. *)
  let max_binding t =
    let start = head_at t (find_start t 1 1) in
    binding (backtrack (rightmost t (rightmost_descend t start)))

  let rec fold_level_from t hib f acc n =
    match n with
    | Null -> acc
    | Node r ->
        if n == t.tail || BK.lt hib r.key then acc
        else
          let s = M.get r.succ in
          let acc =
            match (r.key, r.elt) with
            | Mid k, Some e when not s.mark -> f acc k e
            | _ -> acc
          in
          fold_level_from t hib f acc s.right

  (* Fold over regular bindings with lo <= key <= hi, in key order; weakly
     consistent under concurrency (like any lock-free iterator). *)
  let fold_range t ~lo ~hi f acc =
    if K.compare lo hi > 0 then acc
    else begin
      let hib = Lf_kernel.Ordered.Mid hi in
      let _, start = search_to_level t ~inclusive:false (Mid lo) 1 in
      fold_level_from t hib f acc start
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
    go acc (M.get (succ_of (head_at t 1))).right

  let to_list t = List.rev (fold t (fun acc k e -> (k, e) :: acc) [])
  let length t = fold t (fun acc _ _ -> acc + 1) 0

  (* Number of non-sentinel nodes on each level; level_counts.(l-1) is the
     population of level l.  Tower-height histogram follows by differencing
     (EXP-7). *)
  let level_counts t =
    Array.init t.max_level (fun i ->
        let rec go acc = function
          | Null -> acc
          | n when n == t.tail -> acc
          | Node n -> go (acc + 1) (M.get n.succ).right
        in
        go 0 (M.get (succ_of (head_at t (i + 1)))).right)

  (* Keys of the non-sentinel nodes physically linked on level [l], in
     order, regardless of mark state.  Quiescent/simulator introspection. *)
  let keys_at_level t l =
    let rec go acc = function
      | Null -> List.rev acc
      | n when n == t.tail -> List.rev acc
      | Node n ->
          let acc =
            match n.key with Lf_kernel.Ordered.Mid k -> k :: acc | _ -> acc
          in
          go acc (M.get n.succ).right
    in
    go [] (M.get (succ_of (head_at t l))).right

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
      (* [ps] is the descriptor of [prev], the node last visited. *)
      let rec go prev ps =
        match ps.right with
        | Null -> fail "fr-skiplist: level %d ends before the tail" l
        | Node n as next ->
            if ps.right_key != n.key then
              fail "fr-skiplist: right_key is not the right node's key (level %d)"
                l;
            if next != t.tail then begin
              if not (BK.lt (key_of prev) n.key) then
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
              go next s
            end
      in
      let head = head_at t l in
      go head (M.get (succ_of head))
    done
end

module Atomic_int = Make (Lf_kernel.Ordered.Int) (Lf_kernel.Atomic_mem)
module Atomic_string = Make (Lf_kernel.Ordered.String) (Lf_kernel.Atomic_mem)
