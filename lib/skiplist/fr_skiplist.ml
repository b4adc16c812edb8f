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
   and backlinks point straight at it and no C&S site allocates a box.
   Keys are stored unboxed; the sentinels carry [K.any], and no code
   compares a sentinel's key (the tail is known by identity, and only
   sentinels have neither an element nor a tower root).  A succ
   descriptor also carries copies of its [right] node's key and [succ]
   cell ([right_key], [right_succ]), and a node carries its [down] node's
   cell ([down_succ]).  A node's key and cells never change, so the copies
   are exact, and a search step reaches the next descriptor through cells and
   descriptors only ("Skiplists with Foresight"): it stops or descends on
   [right_key], moves right through [right_succ] and descends through
   [down_succ], without loading the next node.  The walk carries its
   level, as FINDSTART_SL returns it, so a node stores none.  C&S still
   compares whole descriptors physically; the copies never decide a C&S,
   and they are not a deviation from the paper.

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

module type S = Fr_skiplist_intf.S

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module BK = Lf_kernel.Ordered.Bounded (K)
  module Ev = Lf_kernel.Mem_event

  type key = K.t

  (* [Null] is the tail's [right], a level-1 [down], the [tower_root] of
     roots and sentinels, and an unset backlink; nothing else. *)
  type 'a node =
    | Null
    | Node of {
        key : K.t; (* [K.any] at sentinels *)
        elt : 'a option; (* Some only at root nodes of real towers *)
        down : 'a node; (* Null at level 1 *)
        down_succ : 'a succ M.aref;
            (* [down]'s succ cell; the node's own at level 1 and the tail *)
        tower_root : 'a node; (* Null for roots and sentinels (self / none) *)
        succ : 'a succ M.aref;
        backlink : 'a node M.aref;
      }

  (* [right_key] is physically [right]'s key ([K.any] for the tail), and
     [right_succ] holds [right]'s succ cell.  The tail's own descriptor has
     no right node, yet the field needs a cell, and [M.aref] is abstract,
     so no placeholder cell can be made without an [M.make], which would
     renumber the simulator's cells.  A lazy cell gives one without a box:
     every other descriptor stores [Lazy.from_val cell], which returns the
     cell itself (a cell is a block that is neither lazy nor a float), so
     forcing it is a tag test; the tail's stores [lazy (null ())], which
     no walk forces, because none moves right onto the tail. *)
  and 'a succ = {
    right : 'a node;
    right_key : K.t;
    right_succ : 'a succ M.aref Lazy.t;
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
  let down_of = function Node n -> n.down | Null -> null ()
  let down_succ_of = function Node n -> n.down_succ | Null -> null ()
  let succ_of = function Node n -> n.succ | Null -> null ()
  let backlink_of = function Node n -> n.backlink | Null -> null ()

  (* [n] is a regular node holding key [k].  Sentinels carry [K.any], which
     may also be a live key, so they must never match: only sentinels have
     neither an element nor a tower root. *)
  let holds n k =
    match n with
    | Node { key; elt; tower_root; _ } ->
        (elt != None || tower_root != Null) && K.compare key k = 0
    | Null -> false

  (* A node's key with the paper's sentinel values, for checked-memory
     reports: a sentinel (no element, no tower root) is the tail or a
     head. *)
  let bounded_key tail : _ node -> K.t Lf_kernel.Ordered.bounded = function
    | Node { elt = None; tower_root = Null; _ } as n ->
        if n == tail then Pos_inf else Neg_inf
    | Node n -> Mid n.key
    | Null -> null ()

  (* A node's level is one more than the length of its [down] chain. *)
  let rec level_of = function
    | Node { down = Node _ as d; _ } -> 1 + level_of d
    | Node _ | Null -> 1

  (* Declare a node's cells to a checked memory (Lf_check.Check_mem); a
     no-op elsewhere, and guarded by [M.stamp <> 0] so unchecked memories
     do not even pay for rendering the owner key.  Every level runs the
     Section 3 protocol independently, so each node is annotated exactly
     like a list node; the level (0 for the tail) is folded into the owner
     name to keep reports and per-level chain snapshots readable. *)
  let succ_view_of tail owner (s : _ succ) : Lf_kernel.Protocol.succ_view =
    {
      right_id =
        (match s.right with
        | Null -> Lf_kernel.Protocol.null_id
        | Node r -> M.stamp r.succ);
      right_gt_owner =
        (match s.right with
        | Null -> true
        | r -> BK.lt owner (bounded_key tail r));
      mark = s.mark;
      flag = s.flag;
    }

  let link_view_of tail owner (l : _ node) : Lf_kernel.Protocol.link_view =
    match l with
    | Null ->
        { target_id = Lf_kernel.Protocol.null_id; left_of_owner = true }
    | Node b ->
        {
          target_id = M.stamp b.succ;
          left_of_owner = BK.lt (bounded_key tail l) owner;
        }

  let annotate_node tail = function
    | Node n as node when M.stamp n.succ <> 0 ->
        let key = bounded_key tail node in
        let level = if node == tail then 0 else level_of node in
        let owner = Format.asprintf "L%d:%a" level BK.pp key in
        let head, sentinel =
          match key with
          | Neg_inf -> (true, true)
          | Pos_inf -> (false, true)
          | Mid _ -> (false, false)
        in
        M.annotate n.succ
          (Lf_kernel.Protocol.Succ
             { owner; head; sentinel; view = succ_view_of tail key });
        M.annotate n.backlink
          (Lf_kernel.Protocol.Backlink
             { owner; view = link_view_of tail key })
    | Node _ | Null -> ()

  let rng = Lf_kernel.Splitmix.domain_local 0x5ee

  (* Every node's [backlink] cell is made before its [succ] cell: the
     simulator numbers cells as they are made, and the pinned simulator
     and model-check reports (bench/results) were recorded in that
     order. *)
  let create_with ?(max_level = 24) ?(help_superfluous = true) () =
    if max_level < 1 then
      invalid_arg
        (Printf.sprintf "Fr_skiplist.create_with: max_level %d < 1" max_level);
    let backlink = M.make Null in
    let succ =
      M.make
        {
          right = Null;
          right_key = K.any;
          right_succ = lazy (null ());
          mark = false;
          flag = false;
        }
    in
    let tail =
      Node
        {
          key = K.any;
          elt = None;
          down = Null;
          down_succ = succ;
          tower_root = Null;
          succ;
          backlink;
        }
    in
    let heads = Array.make max_level tail in
    annotate_node tail tail;
    for l = 1 to max_level do
      let backlink = M.make Null in
      let succ =
        M.make
          {
            right = tail;
            right_key = K.any;
            right_succ = Lazy.from_val (succ_of tail);
            mark = false;
            flag = false;
          }
      in
      let down, down_succ =
        if l = 1 then (Null, succ)
        else (heads.(l - 2), succ_of heads.(l - 2))
      in
      heads.(l - 1) <-
        Node
          {
            key = K.any;
            elt = None;
            down;
            down_succ;
            tower_root = Null;
            succ;
            backlink;
          };
      annotate_node tail heads.(l - 1)
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
             right_succ = ds.right_succ;
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
     traverses level [l], the level of [curr] (a walk moves only along one
     level's succ fields and backlinks), [cs] being the descriptor last
     read from [curr], helping physical deletions of marked nodes and - in
     the default mode - deleting superfluous towers on the way.  The stop
     test reads [cs.right_key], a right move reads [cs.right_succ] and a
     descent [curr]'s [down_succ], so no step loads the node it moves to.
     Where SEARCHRIGHT would return above level [v], it steps down and
     walks on; at level [v] it returns the window (n1, n2) with n1.key <= k
     < n2.key (inclusive) or n1.key < k <= n2.key (exclusive), adjacent at
     some instant.  Its shared accesses are those of one SEARCHRIGHT per
     level, in the same order. *)
  let rec walk t inclusive k v l curr cs =
    if
      cs.right == t.tail
      ||
      let c = K.compare cs.right_key k in
      if inclusive then c > 0 else c >= 0
    then begin
      if l > v then
        walk t inclusive k v (l - 1) (down_of curr)
          (M.get (down_succ_of curr))
      else (curr, cs.right)
    end
    else
      let next = cs.right in
      (* Forced once: each force is a C call ([caml_obj_tag]). *)
      let ncell = Lazy.force cs.right_succ in
      let nsucc = M.get ncell in
      if nsucc.mark then begin
        let cs = M.get (succ_of curr) in
        if (not cs.mark) || cs.right != next then begin
          if cs.right == next then help_marked curr next;
          M.event Ev.Next_update;
          walk t inclusive k v l curr (M.get (succ_of curr))
        end
        else begin
          (* curr and next both marked and adjacent: step through. *)
          M.event Ev.Curr_update;
          walk t inclusive k v l next (M.get (succ_of next))
        end
      end
      else if t.help_superfluous && is_superfluous next then begin
        (* Delete the superfluous node from this level (Section 4:
           searches perform all three deletion steps if necessary). *)
        match try_flag_node t curr next with
        | Some prev, _we_flagged ->
            help_flagged t prev next;
            M.event Ev.Next_update;
            walk t inclusive k v l prev (M.get (succ_of prev))
        | None, _ ->
            M.event Ev.Next_update;
            walk t inclusive k v l curr (M.get (succ_of curr))
      end
      else begin
        M.event Ev.Curr_update;
        walk t inclusive k v l next (M.get ncell)
      end

  (* SEARCHRIGHT: the walk confined to the level of [curr] (curr.key <= k
     or curr is a head).  Equal target and current levels: it never
     descends. *)
  and search_right t ~inclusive k curr =
    walk t inclusive k 0 0 curr (M.get (succ_of curr))

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

  (* SEARCHTOLEVEL_SL: one walk from FINDSTART_SL's head, at the level it
     returns, down to level [v]; returns the (n1, n2) window at level v. *)
  let search_to_level t ~inclusive k v =
    let v = min v t.max_level in
    let l = find_start t v 1 in
    let start = head_at t l in
    walk t inclusive k v l start (M.get (succ_of start))

  let hint_stats (_ : 'a t) : Lf_kernel.Hint.stats option = None

  (* SEARCH_SL. *)
  let find t k =
    match search_to_level t ~inclusive:true k 1 with
    | Node { key; elt = Some _ as elt; _ }, _ when K.compare key k = 0 -> elt
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
      (* [ps.right] is [next], so [ps.right_key] and [ps.right_succ] are
         its key and cell. *)
      let backlink = M.make Null in
      let succ =
        M.make
          {
            right = next;
            right_key = ps.right_key;
            right_succ = ps.right_succ;
            mark = false;
            flag = false;
          }
      in
      let down_succ = match down with Node d -> d.succ | Null -> succ in
      let nn = Node { key; elt; down; down_succ; tower_root; succ; backlink } in
      annotate_node t.tail nn;
      if
        M.cas (succ_of prev) ~kind:Ev.Insertion ~expect:ps
          {
            right = nn;
            right_key = key;
            right_succ = Lazy.from_val succ;
            mark = false;
            flag = false;
          }
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
    if holds prev key then (prev, `Duplicate)
    else insert_attempt t key elt down tower_root prev next

  let flip () = Lf_kernel.Splitmix.bool (rng ())

  let rec random_height t h =
    if h < t.max_level && flip () then random_height t (h + 1) else h

  (* Build [root]'s tower bottom-up from [level], [last] being the node
     below; stop once the root gets marked.  Each upper level is located
     by a fresh search from the top. *)
  let rec ascend t k root height level last =
    if level <= height && not (M.get (succ_of root)).mark then begin
      let prev, next = search_to_level t ~inclusive:true k level in
      if holds prev k then begin
        (* A same-key node from an old superfluous tower blocks this
           level; the search that found it is also removing it (or our
           own root got marked) - retry. *)
        M.event Ev.Retry;
        if not (M.get (succ_of root)).mark then
          ascend t k root height level last
      end
      else
        match
          insert_node t ~key:k ~elt:None ~down:last ~tower_root:root prev next
        with
        | _, `Duplicate ->
            M.event Ev.Retry;
            if not (M.get (succ_of root)).mark then
              ascend t k root height level last
        | prev', `Inserted nn ->
            if (M.get (succ_of root)).mark then
              (* The tower became superfluous while we were building it:
                 undo the node we just added. *)
              ignore (delete_node t prev' nn)
            else ascend t k root height (level + 1) nn
    end

  (* INSERT_SL with an explicit tower height (used by tests and by the
     deterministic experiments; [insert] draws the height by coin flips). *)
  let insert_with_height t ~height k e =
    let height = max 1 (min height t.max_level) in
    let prev, next = search_to_level t ~inclusive:true k 1 in
    if holds prev k then false
    else begin
      match
        insert_node t ~key:k ~elt:(Some e) ~down:Null ~tower_root:Null prev
          next
      with
      | _, `Duplicate -> false
      | _, `Inserted root ->
          ascend t k root height 2 root;
          true
    end

  let insert t k e = insert_with_height t ~height:(random_height t 1) k e

  (* DELETE_SL: delete the root (linearization: its marking), then let a
     search clean the upper levels of the now-superfluous tower. *)
  let delete t k =
    let prev, del = search_to_level t ~inclusive:false k 1 in
    if not (holds del k) then false
    else begin
      match delete_node t prev del with
      | `Deleted_by_us ->
          if t.help_superfluous && t.max_level >= 2 then
            ignore (search_to_level t ~inclusive:true k 2);
          true
      | `Deleted_by_other | `Gone -> false
    end

  (* The binding a regular root node holds; [None] at sentinels. *)
  let binding = function
    | Node { key; elt = Some e; _ } -> Some (key, e)
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
     with key >= [k]. *)
  let rec find_ge t k =
    let n1, n2 = search_to_level t ~inclusive:false k 1 in
    if n2 == t.tail then None
    else if (M.get (succ_of n2)).mark then begin
      help_marked n1 n2;
      find_ge t k
    end
    else binding n2

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
    match down_of curr with Null -> curr | d -> rightmost_descend t d

  (* Largest regular binding, located by walking right at each level before
     descending: O(log n) expected.  If the rightmost bottom node is marked
     its backlink leads to the nearest unmarked predecessor. *)
  let max_binding t =
    let start = head_at t (find_start t 1 1) in
    binding (backtrack (rightmost t (rightmost_descend t start)))

  let rec fold_level_from t hi f acc n =
    match n with
    | Null -> acc
    | Node r ->
        if n == t.tail || K.compare hi r.key < 0 then acc
        else
          let s = M.get r.succ in
          let acc =
            match r.elt with
            | Some e when not s.mark -> f acc r.key e
            | _ -> acc
          in
          fold_level_from t hi f acc s.right

  (* Fold over regular bindings with lo <= key <= hi, in key order; weakly
     consistent under concurrency (like any lock-free iterator). *)
  let fold_range t ~lo ~hi f acc =
    if K.compare lo hi > 0 then acc
    else begin
      let _, start = search_to_level t ~inclusive:false lo 1 in
      fold_level_from t hi f acc start
    end

  (* --- Quiescent snapshots and validation. --- *)

  let fold t f acc =
    let rec go acc = function
      | Null -> acc
      | Node n -> (
          let s = M.get n.succ in
          match n.elt with
          | Some e when not s.mark -> go (f acc n.key e) s.right
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
      | Node n -> go (n.key :: acc) (M.get n.succ).right
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
    let check_down_succ l = function
      | Node { down = Node d; down_succ; _ } ->
          if down_succ != d.succ then
            fail "fr-skiplist: down_succ is not the down node's cell (level %d)"
              l
      | Node { down = Null; down_succ; succ; _ } ->
          if down_succ != succ then
            fail "fr-skiplist: down_succ is not the node's own cell (level %d)"
              l
      | Null -> ()
    in
    check_down_succ 0 t.tail;
    for l = 1 to t.max_level do
      let head = head_at t l in
      check_down_succ l head;
      (* [ps] is the descriptor of [prev], the node last visited. *)
      let rec go prev ps =
        match ps.right with
        | Null -> fail "fr-skiplist: level %d ends before the tail" l
        | Node n as next ->
            if ps.right_key != n.key then
              fail "fr-skiplist: right_key is not the right node's key (level %d)"
                l;
            if Lazy.force ps.right_succ != n.succ then
              fail
                "fr-skiplist: right_succ is not the right node's cell (level %d)"
                l;
            if next != t.tail then begin
              if prev != head && K.compare (key_of prev) n.key >= 0 then
                fail "fr-skiplist: level %d keys unsorted" l;
              let s = M.get n.succ in
              if t.help_superfluous && s.mark then
                fail "fr-skiplist: marked node at quiescence (level %d)" l;
              if s.flag then
                fail "fr-skiplist: flagged node at quiescence (level %d)" l;
              (match n.down with
              | Node d when l > 1 ->
                  if K.compare d.key n.key <> 0 then
                    fail "fr-skiplist: down pointer key mismatch"
              | Null when l = 1 -> ()
              | _ -> fail "fr-skiplist: down pointer shape at level %d" l);
              check_down_succ l next;
              (if t.help_superfluous then
                 match n.tower_root with
                 | Null -> if l <> 1 then fail "fr-skiplist: upper node w/o root"
                 | Node r ->
                     if (M.get r.succ).mark then
                       fail "fr-skiplist: superfluous node survives quiescence");
              go next s
            end
      in
      go head (M.get (succ_of head))
    done
end

(* [Make]'s text above with [K] and [M] bound to the int order and real
   atomics, generated by this directory's dune rule (tools/specialize). *)
module Atomic_int = Fr_skiplist_atomic_int
module Atomic_string = Make (Lf_kernel.Ordered.String) (Lf_kernel.Atomic_mem)
