(* Lock-free skip list of Fomitchev & Ruppert (PODC 2004, Section 4).

   Each key is represented by a *tower* of nodes, one node per level; the
   nodes of one level form a singly-linked list maintained with the
   linked-list algorithms of Section 3 (succ descriptors whose constructor
   is their mark and flag bits, as in [Fr_list], and backlinks).  Every
   non-root node carries an immutable [down] pointer to the node one level
   below and a [tower_root] pointer to the root (level-1) node of its
   tower; a tower whose root is marked is
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

   SEARCHRIGHT and SEARCHTOLEVEL_SL return their window (n1, n2); here a
   search hands it on instead, as two arguments of its caller's next
   step, which a constant tag of type [next] names, so a search allocates
   nothing (without flambda a returned pair is a heap block).  The search
   and the step make the shared accesses the paper's caller makes on the
   returned pair, in the same order.  The tags and the paper's steps:
     [Window]  SEARCHRIGHT's own return, the pair, for [fold_range];
     [Pred]    SEARCH_SL's n1 (and DELETE_SL's cleanup search);
     [Root]    INSERT_SL's INSERTNODE of the root;
     [Level]   INSERT_SL's INSERTNODE on an upper level;
     [Delete]  DELETE_SL: DELETENODE on n2;
     [Reflag]  TRYFLAGNODE's search for DELETENODE;
     [Unlink]  TRYFLAGNODE's search for a search's superfluous-node
               deletion (Section 4);
     [Succ]    the successor query [find_ge].
   TRYFLAGNODE finishes the deletion itself (HELPFLAGGED), and INSERTNODE
   returns the node it linked; neither returns a pair or a variant.

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

  (* A descriptor's constructor is its state, as in [Fr_list]: [Clean]
     (right,0,0), [Flagged] (right,0,1) or [Marked] (right,1,0).
     [right_key] is physically [right]'s key ([K.any] for the tail), and
     [right_succ] is [right]'s succ cell.  [End] is the tail's own
     descriptor, which has no right node; no other cell holds it. *)
  and 'a succ =
    | End
    | Clean of { right : 'a node; right_key : K.t; right_succ : 'a succ M.aref }
    | Flagged of {
        right : 'a node;
        right_key : K.t;
        right_succ : 'a succ M.aref;
      }
    | Marked of {
        right : 'a node;
        right_key : K.t;
        right_succ : 'a succ M.aref;
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

  (* A descriptor's right node ([Null] for [End]) and its two bits. *)
  let right_of = function
    | Clean { right; _ } | Flagged { right; _ } | Marked { right; _ } -> right
    | End -> Null

  let[@inline] is_marked = function
    | Marked _ -> true
    | End | Clean _ | Flagged _ -> false

  let is_flagged = function
    | Flagged _ -> true
    | End | Clean _ | Marked _ -> false

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
    match right_of s with
    | Null ->
        {
          right_id = Lf_kernel.Protocol.null_id;
          right_gt_owner = true;
          mark = false;
          flag = false;
        }
    | r ->
        {
          right_id = M.stamp (succ_of r);
          right_gt_owner = BK.lt owner (bounded_key tail r);
          mark = is_marked s;
          flag = is_flagged s;
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
    let succ = M.make End in
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
          (Clean { right = tail; right_key = K.any; right_succ = succ_of tail })
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
    | Node { tower_root = Node r; _ } -> is_marked (M.get r.succ)
    | Node _ | Null -> false

  (* --- The per-level linked-list machinery (Section 3 reused). ---

     Every operation loop below is a top-level function with explicit
     arguments: without flambda a local recursive function is a closure
     allocated on each call, and a search would pay for one per level. *)

  let help_marked prev del =
    let ds = M.get (succ_of del) in
    let expect = M.get (succ_of prev) in
    match (expect, ds) with
    | Flagged { right; _ }, Marked d when right == del ->
        ignore
          (M.cas (succ_of prev) ~kind:Ev.Physical_delete ~expect
             (Clean
                {
                  right = d.right;
                  right_key = d.right_key;
                  right_succ = d.right_succ;
                }))
    | _ -> ()

  let rec help_flagged t prev del =
    M.set (backlink_of del) prev;
    if not (is_marked (M.get (succ_of del))) then try_mark t del;
    help_marked prev del

  (* Only the tail, which is never deleted, holds [End]. *)
  and try_mark t del =
    match M.get (succ_of del) with
    | Marked _ | End -> ()
    | Flagged { right; _ } ->
        M.event Ev.Help;
        help_flagged t del right;
        try_mark t del
    | Clean { right; right_key; right_succ } as s ->
        if
          not
            (M.cas (succ_of del) ~kind:Ev.Marking ~expect:s
               (Marked { right; right_key; right_succ }))
        then try_mark t del

  let rec backtrack p =
    if is_marked (M.get (succ_of p)) then begin
      M.event Ev.Backlink_step;
      backtrack (M.get (backlink_of p))
    end
    else p

  let level_nonempty t l = right_of (M.get (succ_of (head_at t l))) != t.tail

  (* FINDSTART_SL: the highest level that has content (or [v] if higher),
     scanning up from level [l]. *)
  let rec find_start t v l =
    if l < t.max_level && (l < v || level_nonempty t (l + 1)) then
      find_start t v (l + 1)
    else l

  (* The root of the tower a node below a new upper node belongs to: the
     node itself at level 1, else its [tower_root]. *)
  let root_of = function
    | Node { tower_root = Null; _ } as n -> n
    | Node { tower_root; _ } -> tower_root
    | Null -> null ()

  (* The binding a regular root node holds; [None] at sentinels. *)
  let binding = function
    | Node { key; elt = Some e; _ } -> Some (key, e)
    | Node _ | Null -> None

  (* --- Searches and the steps that follow them. ---

     A search does not return its window (n1, n2): it ends by calling
     [found], which runs the step its caller named by a [next] tag, with
     n1 and n2 as two arguments, so a search allocates nothing (without
     flambda a returned pair is a heap block).  The shared accesses are
     those of the search and its caller's next step, in the same order.

     The tags (see the header for the paper's steps), with what the step
     gets besides the window and what it returns:
     - [Window]: the pair (n1, n2);
     - [Pred]: n1, which holds k if k is present;
     - [Root], with the element: the root, or [Null] on DUPLICATE_KEY;
     - [Level], with the node below: the new node, the node below again
       to retry the level, or [Null] once the root got marked (the new
       node is then removed);
     - [Delete]: NO_SUCH_KEY ([false]), or DELETENODE on n2 and then the
       cleanup search;
     - [Reflag] and [Unlink], with the target: [Null] if it is gone,
       else TRYFLAGNODE's result from n1 (see [try_flag_node]);
     - [Succ]: the binding of n2, helping and retrying past a marked n2. *)
  type (_, _, _) next =
    | Window : ('a, unit, 'a node * 'a node) next
    | Pred : ('a, unit, 'a node) next
    | Root : ('a, 'a, 'a node) next
    | Level : ('a, 'a node, 'a node) next
    | Delete : ('a, unit, bool) next
    | Reflag : ('a, 'a node, 'a node) next
    | Unlink : ('a, 'a node, 'a node) next
    | Succ : ('a, unit, (K.t * 'a) option) next

  (* SEARCHRIGHT's walk, with SEARCHTOLEVEL_SL's descent folded in.  It
     traverses level [l], the level of [curr] (a walk moves only along one
     level's succ fields and backlinks), [cs] being the descriptor last
     read from [curr], helping physical deletions of marked nodes and - in
     the default mode - deleting superfluous towers on the way.  The stop
     test reads [cs]'s [right_key], a right move its [right_succ] and a
     descent [curr]'s [down_succ], so no step loads the node it moves to.
     Where SEARCHRIGHT would return above level [v], it steps down and
     walks on; at level [v] it hands the window (n1, n2), with n1.key <= k
     < n2.key (inclusive) or n1.key < k <= n2.key (exclusive), adjacent at
     some instant, to the step [nx].  Its shared accesses are those of one
     SEARCHRIGHT per level, in the same order.  A step matches its
     descriptor once, with one or-pattern over the three states; [End]
     would mean the walk stands on the tail, which none does. *)
  let rec walk :
      type a x r.
      a t ->
      (a, x, r) next ->
      x ->
      bool ->
      K.t ->
      int ->
      int ->
      a node ->
      a succ ->
      r =
   fun t nx x inclusive k v l curr cs ->
    match cs with
    | Clean { right = next; right_key; right_succ = ncell }
    | Flagged { right = next; right_key; right_succ = ncell }
    | Marked { right = next; right_key; right_succ = ncell } ->
        if
          next == t.tail
          ||
          let c = K.compare right_key k in
          if inclusive then c > 0 else c >= 0
        then begin
          if l > v then
            walk t nx x inclusive k v (l - 1) (down_of curr)
              (M.get (down_succ_of curr))
          else found t nx x k v curr next
        end
        else if is_marked (M.get ncell) then begin
          match M.get (succ_of curr) with
          | Marked { right; _ } when right == next ->
              (* curr and next both marked and adjacent: step through. *)
              M.event Ev.Curr_update;
              walk t nx x inclusive k v l next (M.get (succ_of next))
          | cs ->
              if right_of cs == next then help_marked curr next;
              M.event Ev.Next_update;
              walk t nx x inclusive k v l curr (M.get (succ_of curr))
        end
        else if t.help_superfluous && is_superfluous next then begin
          (* Delete the superfluous node from this level (Section 4:
             searches perform all three deletion steps if necessary) and
             go on from its predecessor, or from [curr] if it left the
             level meanwhile. *)
          let prev = try_flag_node t Unlink curr next in
          let curr = if prev == Null then curr else prev in
          M.event Ev.Next_update;
          walk t nx x inclusive k v l curr (M.get (succ_of curr))
        end
        else begin
          M.event Ev.Curr_update;
          walk t nx x inclusive k v l next (M.get ncell)
        end
    | End -> null ()

  (* SEARCHRIGHT: the walk confined to the level of [curr] (curr.key <= k
     or curr is a head); [v] is that level, or 0 where no step needs it.
     Equal target and current levels: it never descends. *)
  and search_right :
      type a x r.
      a t -> (a, x, r) next -> x -> inclusive:bool -> K.t -> int -> a node -> r
      =
   fun t nx x ~inclusive k v curr ->
    walk t nx x inclusive k v v curr (M.get (succ_of curr))

  (* SEARCHTOLEVEL_SL: one walk from FINDSTART_SL's head, at the level it
     returns, down to level [v]; the step gets the window at level v. *)
  and search_to_level :
      type a x r. a t -> (a, x, r) next -> x -> inclusive:bool -> K.t -> int -> r
      =
   fun t nx x ~inclusive k v ->
    let v = min v t.max_level in
    let l = find_start t v 1 in
    let start = head_at t l in
    walk t nx x inclusive k v l start (M.get (succ_of start))

  (* The step [nx] names, on the window (n1, n2) at level [v] of a search
     for [k]. *)
  and found :
      type a x r. a t -> (a, x, r) next -> x -> K.t -> int -> a node -> a node -> r
      =
   fun t nx x k v n1 n2 ->
    match nx with
    | Window -> (n1, n2)
    | Pred -> n1
    | Root ->
        if holds n1 k then Null
        else insert_attempt t nx x (Some x) Null k v n1 n2
    | Level ->
        (* A same-key node from an old superfluous tower blocks this level;
           the search that found it is also removing it (or our own root
           got marked): retry. *)
        if holds n1 k then x else insert_attempt t nx x None x k v n1 n2
    | Delete ->
        if holds n2 k && delete_node t n1 n2 then begin
          (* The root is marked (linearization): let a search clean the
             upper levels of the now-superfluous tower. *)
          clean_up t k;
          true
        end
        else false
    | Reflag -> if n2 != x then Null else try_flag_node t nx n1 x
    | Unlink -> if n2 != x then Null else try_flag_node t nx n1 x
    | Succ ->
        if n2 == t.tail then None
        else if is_marked (M.get (succ_of n2)) then begin
          help_marked n1 n2;
          find_ge t k
        end
        else binding n2

  (* TRYFLAGNODE: flag the in-level predecessor of [target], relocating
     via backlinks and a level-local search ([nx]'s) when interference
     hits, then finish the deletion (HELPFLAGGED, where its callers ran
     it).  Returns the predecessor the flag is on for the walk ([Unlink])
     whoever placed it, and for DELETENODE ([Reflag]) only if we placed
     it; [Null] otherwise, and if [target] left the level.  The flagging
     C&S is tried only on a clean descriptor whose right is [target]; on
     any other it would fail. *)
  and try_flag_node : 'a. 'a t -> ('a, 'a node, 'a node) next -> 'a node -> 'a node -> 'a node =
   fun t nx prev target ->
    match M.get (succ_of prev) with
    | Flagged { right; _ } when right == target ->
        flagged t nx prev target false
    | Clean { right; right_key; right_succ } as ps
      when right == target
           && M.cas (succ_of prev) ~kind:Ev.Flagging ~expect:ps
                (Flagged { right; right_key; right_succ }) ->
        flagged t nx prev target true
    | End | Clean _ | Flagged _ | Marked _ -> (
        match M.get (succ_of prev) with
        | Flagged { right; _ } when right == target ->
            flagged t nx prev target false
        | End | Clean _ | Flagged _ | Marked _ ->
            let prev = backtrack prev in
            search_right t nx target ~inclusive:false (key_of target) 0 prev)

  (* DELETENODE: the three-step deletion given a position hint; whether
     we placed the flag. *)
  and delete_node : 'a. 'a t -> 'a node -> 'a node -> bool =
   fun t prev del -> try_flag_node t Reflag prev del != Null

  and flagged : 'a. 'a t -> ('a, 'a node, 'a node) next -> 'a node -> 'a node -> bool -> 'a node =
   fun t nx prev target ours ->
    help_flagged t prev target;
    if ours || nx == Unlink then prev else Null

  (* INSERTNODE: link a fresh node with [key] = [k], [elt] and [down]
     between [prev] and [next] on level [v], with the linked-list INSERT
     loop's recovery; the search of each relocation comes back through
     [nx]'s step, which tells a duplicate.  An upper node's [tower_root]
     is its down node's root; once it is linked, a marked root means the
     tower became superfluous while we were building it, and the node just
     added is deleted again. *)
  and insert_attempt :
      'a 'x.
      'a t ->
      ('a, 'x, 'a node) next ->
      'x ->
      'a option ->
      'a node ->
      K.t ->
      int ->
      'a node ->
      'a node ->
      'a node =
   fun t nx x elt down k v prev next ->
    match M.get (succ_of prev) with
    | Flagged { right; _ } ->
        M.event Ev.Help;
        help_flagged t prev right;
        search_right t nx x ~inclusive:true k v prev
    | Clean { right; right_key; right_succ } as ps when right == next -> (
        (* [right_key] and [right_succ] are [next]'s key and cell. *)
        let backlink = M.make Null in
        let succ = M.make (Clean { right; right_key; right_succ }) in
        let down_succ = match down with Node d -> d.succ | Null -> succ in
        let tower_root =
          match down with Node _ -> root_of down | Null -> Null
        in
        let nn =
          Node { key = k; elt; down; down_succ; tower_root; succ; backlink }
        in
        annotate_node t.tail nn;
        if
          M.cas (succ_of prev) ~kind:Ev.Insertion ~expect:ps
            (Clean { right = nn; right_key = k; right_succ = succ })
        then
          match tower_root with
          | Node r when is_marked (M.get r.succ) ->
              ignore (delete_node t prev nn);
              Null
          | _ -> nn
        else insert_recover t nx x k v prev)
    | End | Clean _ | Marked _ -> insert_recover t nx x k v prev

  and insert_recover :
      'a 'x. 'a t -> ('a, 'x, 'a node) next -> 'x -> K.t -> int -> 'a node -> 'a node =
   fun t nx x k v prev ->
    (match M.get (succ_of prev) with
    | Flagged { right; _ } ->
        M.event Ev.Help;
        help_flagged t prev right
    | End | Clean _ | Marked _ -> ());
    let prev = backtrack prev in
    search_right t nx x ~inclusive:true k v prev

  and clean_up : 'a. 'a t -> K.t -> unit =
   fun t k ->
    if t.help_superfluous && t.max_level >= 2 then
      ignore (search_to_level t Pred () ~inclusive:true k 2)

  (* Successor query in O(log n) expected: the smallest regular binding
     with key >= [k]. *)
  and find_ge : 'a. 'a t -> K.t -> (K.t * 'a) option =
   fun t k -> search_to_level t Succ () ~inclusive:false k 1

  let hint_stats (_ : 'a t) : Lf_kernel.Hint.stats option = None

  (* SEARCH_SL. *)
  let find t k =
    match search_to_level t Pred () ~inclusive:true k 1 with
    | Node { key; elt = Some _ as elt; _ } when K.compare key k = 0 -> elt
    | _ -> None

  let mem t k = Option.is_some (find t k)

  let flip () = Lf_kernel.Splitmix.bool (rng ())

  let rec random_height t h =
    if h < t.max_level && flip () then random_height t (h + 1) else h

  (* Build [root]'s tower bottom-up from [level], [last] being the node
     below; stop once the root gets marked.  Each upper level is located
     by a fresh search from the top. *)
  let rec ascend t k root height level last =
    if level <= height && not (is_marked (M.get (succ_of root))) then begin
      let nn = search_to_level t Level last ~inclusive:true k level in
      if nn == last then begin
        M.event Ev.Retry;
        if not (is_marked (M.get (succ_of root))) then
          ascend t k root height level last
      end
      else if nn != Null then ascend t k root height (level + 1) nn
    end

  (* INSERT_SL with an explicit tower height (used by tests and by the
     deterministic experiments; [insert] draws the height by coin flips). *)
  let insert_with_height t ~height k e =
    let height = max 1 (min height t.max_level) in
    match search_to_level t Root e ~inclusive:true k 1 with
    | Null -> false
    | root ->
        ascend t k root height 2 root;
        true

  let insert t k e = insert_with_height t ~height:(random_height t 1) k e

  (* DELETE_SL: delete the root (linearization: its marking), then let a
     search clean the upper levels of the now-superfluous tower. *)
  let delete t k = search_to_level t Delete () ~inclusive:false k 1

  (* Lotan-Shavit style delete-min on the root level: claim the leftmost
     regular root via the three-step deletion.  Quiescently consistent (a
     concurrent smaller insert may be missed), exact at quiescence. *)
  let rec delete_min t =
    let head = head_at t 1 in
    let first = right_of (M.get (succ_of head)) in
    if first == t.tail then None
    else if delete_node t head first then begin
      clean_up t (key_of first);
      binding first
    end
    else delete_min t

  let rec min_binding t =
    let head = head_at t 1 in
    let n = right_of (M.get (succ_of head)) in
    if n == t.tail then None
    else if is_marked (M.get (succ_of n)) then begin
      help_marked head n;
      min_binding t
    end
    else binding n

  let rec rightmost t curr =
    let n = right_of (M.get (succ_of curr)) in
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
            | Some e when not (is_marked s) -> f acc r.key e
            | _ -> acc
          in
          fold_level_from t hi f acc (right_of s)

  (* Fold over regular bindings with lo <= key <= hi, in key order; weakly
     consistent under concurrency (like any lock-free iterator). *)
  let fold_range t ~lo ~hi f acc =
    if K.compare lo hi > 0 then acc
    else begin
      let _, start = search_to_level t Window () ~inclusive:false lo 1 in
      fold_level_from t hi f acc start
    end

  (* --- Quiescent snapshots and validation. --- *)

  let fold t f acc =
    let rec go acc = function
      | Null -> acc
      | Node n -> (
          let s = M.get n.succ in
          match n.elt with
          | Some e when not (is_marked s) -> go (f acc n.key e) (right_of s)
          | _ -> go acc (right_of s))
    in
    go acc (right_of (M.get (succ_of (head_at t 1))))

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
          | Node n -> go (acc + 1) (right_of (M.get n.succ))
        in
        go 0 (right_of (M.get (succ_of (head_at t (i + 1))))))

  (* Keys of the non-sentinel nodes physically linked on level [l], in
     order, regardless of mark state.  Quiescent/simulator introspection. *)
  let keys_at_level t l =
    let rec go acc = function
      | Null -> List.rev acc
      | n when n == t.tail -> List.rev acc
      | Node n -> go (n.key :: acc) (right_of (M.get n.succ))
    in
    go [] (right_of (M.get (succ_of (head_at t l))))

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
    if M.get (succ_of t.tail) != End then
      fail "fr-skiplist: the tail's cell does not hold End";
    for l = 1 to t.max_level do
      let head = head_at t l in
      check_down_succ l head;
      (* [ps] is the descriptor of [prev], the node last visited, which is
         the level's head or a regular node: at quiescence it is [Clean],
         or [Marked] on a superfluous node the EXP-9 ablation left
         linked. *)
      let rec go prev ps =
        match ps with
        | End ->
            fail "fr-skiplist: a cell other than the tail's holds End (level %d)"
              l
        | Flagged _ ->
            fail "fr-skiplist: flagged node at quiescence (level %d)" l
        | Marked _ when t.help_superfluous ->
            fail "fr-skiplist: marked node at quiescence (level %d)" l
        | Clean { right; right_key; right_succ }
        | Marked { right; right_key; right_succ } -> (
            match right with
            | Null -> fail "fr-skiplist: level %d ends before the tail" l
            | Node n as next ->
                if right_key != n.key then
                  fail
                    "fr-skiplist: right_key is not the right node's key (level %d)"
                    l;
                if right_succ != n.succ then
                  fail
                    "fr-skiplist: right_succ is not the right node's cell (level \
                     %d)"
                    l;
                if next != t.tail then begin
                  if prev != head && K.compare (key_of prev) n.key >= 0 then
                    fail "fr-skiplist: level %d keys unsorted" l;
                  (match n.down with
                  | Node d when l > 1 ->
                      if K.compare d.key n.key <> 0 then
                        fail "fr-skiplist: down pointer key mismatch"
                  | Null when l = 1 -> ()
                  | _ -> fail "fr-skiplist: down pointer shape at level %d" l);
                  check_down_succ l next;
                  (if t.help_superfluous then
                     match n.tower_root with
                     | Null ->
                         if l <> 1 then fail "fr-skiplist: upper node w/o root"
                     | Node r ->
                         if is_marked (M.get r.succ) then
                           fail
                             "fr-skiplist: superfluous node survives quiescence");
                  go next (M.get n.succ)
                end)
      in
      go head (M.get (succ_of head))
    done
end

(* [Make]'s text above with [K] and [M] bound to the int order and real
   atomics, generated by this directory's dune rule (tools/specialize). *)
module Atomic_int = Fr_skiplist_atomic_int
module Atomic_string = Make (Lf_kernel.Ordered.String) (Lf_kernel.Atomic_mem)
