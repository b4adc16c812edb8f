(* Lock-free sorted singly-linked list of Fomitchev & Ruppert (PODC 2004),
   Figures 3-5.

   Every node carries a [succ] descriptor (right, mark, flag) stored in a
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
   re-validate (every such branch is self-validating, see DESIGN.md).  Every
   C&S installs a freshly allocated descriptor, and a new node's cell
   starts, as in the paper's INSERT, from the (next,0,0) descriptor its
   predecessor gives up in the linking C&S, so no two linked cells hold one
   descriptor and no cell ever holds the same one twice.

   Layout, as in [Fr_skiplist].  A node is an inline record, so [right],
   backlinks and hint anchors point straight at it.  The head and the tail
   are [Sentinel]s, which hold only their two cells, so a regular [Node]
   stores its key and element unboxed and no code compares a sentinel's
   key: the tail is known by identity.  The paper steals two pointer bits
   for mark and flag; here a descriptor's constructor is those bits:
   [Clean] is (right,0,0), [Flagged] (right,0,1) and [Marked] (right,1,0),
   so a descriptor both marked and flagged (INV 5) cannot be built.  A
   descriptor also carries copies of its [right] node's key and [succ]
   cell ([right_key], [right_succ]; [K.any] and the tail's cell when
   [right] is the tail).  A node's key and cells never change, so the
   copies are exact, and a SEARCHFROM step decides on [right_key] and
   reads the next descriptor through [right_succ], without loading the
   next node ("Skiplists with Foresight").  C&S still compares whole
   descriptors physically; the copies never decide a C&S, and they are
   not a deviation from the paper.

   Figure 3's SEARCHFROM returns its window (n1, n2); here a search
   hands it on instead, as two arguments of its caller's next step, which
   a constant tag of type [next] names, so a search allocates nothing
   (without flambda a returned pair is a heap block).  The search and the
   step make the shared accesses the paper's caller makes on the returned
   pair, in the same order.  The tags and the paper's steps:
     [Window]  SEARCHFROM's own return, the pair, for cold callers;
     [Pred]    SEARCH (Fig. 3): n1, which holds k if k is present;
     [Insert]  INSERT (Fig. 5) after the search of line 2 or 19;
     [Delete]  DELETE (Fig. 4) after its search: TRYFLAG on n2;
     [Reflag]  TRYFLAG's search of line 11: TRYFLAG again from n1;
     [Succ]    the successor query [find_ge].
   TRYFLAG finishes the deletion itself (HELPFLAGGED) and returns only
   whether it placed the flag, and INSERT returns only its result.

   [create ~use_flags:false] builds the EXP-8 ablation variant: two-step
   Harris-style deletion that still sets backlinks but never flags the
   predecessor, exhibiting the rightward-growing backlink chains the flag bit
   exists to prevent. *)

module type S = Fr_list_intf.S

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module BK = Lf_kernel.Ordered.Bounded (K)
  module Ev = Lf_kernel.Mem_event
  module Hint = Lf_kernel.Hint

  type key = K.t

  (* [Null] is the tail's [right], an unset backlink and an empty anchor;
     nothing else.  The head and the tail are the only [Sentinel]s. *)
  type 'a node =
    | Null
    | Sentinel of { succ : 'a succ M.aref; backlink : 'a node M.aref }
    | Node of {
        key : K.t;
        elt : 'a;
        succ : 'a succ M.aref;
        backlink : 'a node M.aref;
        anchor : 'a anchor;
      }

  (* A descriptor's constructor is its state (see the header).
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

  (* What a hint slot holds: a box that points at its node until the
     node is marked, when the winner of the marking C&S empties it.  A
     slot that outlives the node then pins two words, not the chain of
     nodes deleted after it that the node's frozen [right] and backlink
     reach.  A plain field, not a [Mem.S] cell: it is never a scheduling
     point, and a racing reader sees the node or [Null], both safe
     because the candidate is validated. *)
  and 'a anchor = { mutable live : 'a node }

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
    hints : 'a anchor Hint.t option;
        (* per-domain predecessor cache; [None] = ablation (hints off) *)
    empty : 'a anchor; (* what a hint slot holds when it caches nothing *)
    off : 'a anchor Hint.slot;
        (* the slot an operation gets when hints are off; never written *)
  }

  let name = "fr-list"

  (* Field access.  Only the tail has a [Null] successor, and no routine
     below dereferences the successor of the tail (searches stop strictly
     before it and it is never deleted), an unset backlink, or a
     sentinel's key or anchor (it has neither). *)
  let null () = invalid_arg "Fr_list: dereferenced a null link"
  let key_of = function Node n -> n.key | Sentinel _ | Null -> null ()

  let[@inline] succ_of = function
    | Node n -> n.succ
    | Sentinel n -> n.succ
    | Null -> null ()

  let[@inline] backlink_of = function
    | Node n -> n.backlink
    | Sentinel n -> n.backlink
    | Null -> null ()

  let anchor_of = function Node n -> n.anchor | Sentinel _ | Null -> null ()

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

  (* [n] is a regular node holding key [k].  A sentinel never matches, so
     [K.any] may be a live key. *)
  let holds n k =
    match n with Node n -> K.compare n.key k = 0 | Sentinel _ | Null -> false

  (* The binding a regular node holds; [None] at the sentinels. *)
  let binding = function
    | Node n -> Some (n.key, n.elt)
    | Sentinel _ | Null -> None

  (* A node's key with the paper's sentinel values, for checked-memory
     reports and [Debug]. *)
  let bounded_key tail : _ node -> K.t Lf_kernel.Ordered.bounded = function
    | Sentinel _ as n -> if n == tail then Pos_inf else Neg_inf
    | Node n -> Mid n.key
    | Null -> null ()

  (* Declare a node's cells to a checked memory.  The decoders close over
     the node's key so they can compare against neighbours with the
     functor's own order; neighbour cells are named by [M.stamp], a pure
     field read on checked memories.  Guarded by [M.stamp <> 0] so
     unchecked memories (where annotation is a no-op anyway) do not even
     pay for rendering the owner key on the insert path. *)
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
    | b ->
        {
          target_id = M.stamp (succ_of b);
          left_of_owner = BK.lt (bounded_key tail l) owner;
        }

  let annotate_node ?(head = false) ?(sentinel = false) tail node =
    if M.stamp (succ_of node) <> 0 then begin
      let key = bounded_key tail node in
      let owner = Format.asprintf "%a" BK.pp key in
      M.annotate (succ_of node)
        (Lf_kernel.Protocol.Succ
           { owner; head; sentinel; view = succ_view_of tail key });
      M.annotate (backlink_of node)
        (Lf_kernel.Protocol.Backlink { owner; view = link_view_of tail key })
    end

  (* Every node's [backlink] cell is made before its [succ] cell: the
     simulator numbers cells as they are made, and the pinned simulator
     and model-check reports (bench/results) were recorded in that
     order. *)
  let create_with ?mutation ?(use_hints = true) ~use_flags () =
    let backlink = M.make Null in
    let succ = M.make End in
    let tail = Sentinel { succ; backlink } in
    let backlink = M.make Null in
    let succ =
      M.make
        (Clean { right = tail; right_key = K.any; right_succ = succ_of tail })
    in
    let head = Sentinel { succ; backlink } in
    (* The flagless ablation deliberately breaks the protocol; it stays
       unannotated so it can run under a checked memory too. *)
    if use_flags then begin
      annotate_node ~sentinel:true tail tail;
      annotate_node ~head:true ~sentinel:true tail head
    end;
    let empty = { live = Null } in
    let hints = if use_hints then Some (Hint.create ~empty) else None in
    let off =
      {
        Hint.value = empty;
        stats = { hits = 0; stale = 0; misses = 0; stores = 0 };
      }
    in
    { head; tail; use_flags; mutation; hints; empty; off }

  let create () = create_with ~use_flags:true ()

  (* The [No_help] mutant refuses the altruistic help at sites that find
     another operation's flag; honest code always helps. *)
  let no_help t = match t.mutation with Some No_help -> true | _ -> false

  (* Every operation loop below is a top-level function with explicit
     arguments: without flambda a local recursive function is a closure
     allocated on each call. *)

  (* HELPMARKED (Fig. 3): [del] is marked, so [del.succ] is frozen; attempt
     the physical deletion C&S on [prev].succ: (del,0,1) -> (del.right,0,0).
     In the flagless ablation the expected descriptor is (del,0,0) instead.
     If the current descriptor is not of that shape the paper's C&S would
     simply fail, so we skip the attempt.  [unlink] returns whether the C&S
     succeeded. *)
  let unlink t prev del =
    let ds = M.get (succ_of del) in
    let expect = M.get (succ_of prev) in
    match (expect, ds) with
    | (Clean { right; _ } | Flagged { right; _ }), Marked d
      when right == del && Bool.equal (is_flagged expect) t.use_flags ->
        M.cas (succ_of prev) ~kind:Ev.Physical_delete ~expect
          (Clean
             {
               right = d.right;
               right_key = d.right_key;
               right_succ = d.right_succ;
             })
    | _ -> false

  let help_marked t prev del = ignore (unlink t prev del)

  (* HELPFLAGGED / TRYMARK (Fig. 4).  [prev] is flagged with successor [del]:
     set the backlink, mark [del] (helping any deletion of [del]'s own
     successor that blocks the marking), then physically delete it. *)
  let rec help_flagged t prev del =
    M.set (backlink_of del) prev;
    if not (is_marked (M.get (succ_of del))) then try_mark t del;
    help_marked t prev del

  and try_mark t del =
    (* Repeat until [del] is marked.  A flagged successor field means the
       deletion of [del]'s successor is in progress: help it finish first
       (the flag blocks our marking C&S).  Only the tail, which is never
       deleted, holds [End]. *)
    match M.get (succ_of del) with
    | Marked _ | End -> ()
    | Flagged { right; _ } ->
        if no_help t then try_mark t del
        else begin
          M.event Ev.Help;
          help_flagged t del right;
          try_mark t del
        end
    | Clean { right; right_key; right_succ } as s ->
        if
          M.cas (succ_of del) ~kind:Ev.Marking ~expect:s
            (Marked { right; right_key; right_succ })
        then (anchor_of del).live <- Null
        else try_mark t del

  (* SEARCHFROM (Fig. 3).  Starting from [curr] (whose key must be <= k),
     [cs] being the descriptor last read from it, finds two nodes (n1, n2)
     such that at some instant during the search n1.right = n2 and n1.key
     <= k < n2.key.  With [inclusive:false] this is the paper's
     SearchFrom(k - eps, .): n1.key < k <= n2.key.  Marked nodes
     encountered along the way are physically deleted (helping).

     [goes_past] is the test of lines 2 and 7, [next.key <= k], made on
     the [right] and [right_key] of [curr]'s descriptor, and a step reads
     [next]'s descriptor through its [right_succ], so an unobstructed step
     never loads [next].  [search_from] carries lines 2-9 and
     [skip_marked] the loop of lines 3-6.  When that loop does not run,
     [next] is unchanged and line 7 would repeat line 2's test, so it is
     skipped: an unobstructed step makes one key comparison.  Each step
     matches its descriptor once, with one or-pattern over the three
     states; [End] would mean the search stands on the tail, which none
     does. *)
  let[@inline] goes_past t inclusive k next next_key =
    next != t.tail
    &&
    let c = K.compare next_key k in
    if inclusive then c <= 0 else c < 0

  (* Line 3's test on [next] and its cell [ncell], from the descriptor
     last read from [curr]: [next] is marked, unless both [curr] and it
     are marked and adjacent (in which case [curr] was marked first and we
     may travel through both). *)
  let skips curr next ncell =
    is_marked (M.get ncell)
    &&
    match M.get (succ_of curr) with
    | Marked { right; _ } -> right != next
    | End | Clean _ | Flagged _ -> true

  (* Lines 4-6, repeated while line 3's test holds; returns the descriptor
     from which the last line 6 read [next]. *)
  let rec skip_marked t curr next =
    if right_of (M.get (succ_of curr)) == next then help_marked t curr next;
    let cs = M.get (succ_of curr) in
    M.event Ev.Next_update;
    match cs with
    | Clean { right; right_succ; _ }
    | Flagged { right; right_succ; _ }
    | Marked { right; right_succ; _ } ->
        if skips curr right right_succ then skip_marked t curr right else cs
    | End -> null ()

  (* Chain-of-backlinks traversal (TRYFLAG line 9-10, INSERT line 17-18):
     walk left until an unmarked node.  Backlink chains are key-decreasing
     and bottom out at the head sentinel, so this terminates. *)
  let rec backtrack p =
    if is_marked (M.get (succ_of p)) then begin
      M.event Ev.Backlink_step;
      backtrack (M.get (backlink_of p))
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
    if is_marked (M.get (succ_of n)) then begin
      M.event Ev.Backlink_step;
      match M.get (backlink_of n) with Null -> t.head | p -> unmark_left t p
    end
    else n

  (* A validated start node for a search with target [k], or the head if
     the candidate (after backlink recovery) is unusable.  Candidates are
     regular nodes (hint anchors and batch carries never hold the tail). *)
  let valid_start t ~inclusive k cand =
    match unmark_left t cand with
    | Node n as s when
        let c = K.compare n.key k in
        if inclusive then c <= 0 else c < 0 ->
        s
    | _ -> t.head

  (* An operation looks up its slot [s] once ([slot]: the domain's, or
     [t.off] when hints are off), starts from [start_for t s], and its
     step ends with [carry t s].  Both work on the slot's fields alone, so
     a hinted operation makes no call into [Hint] after the lookup and
     boxes nothing; they count and emit the [hint:*] events themselves.
     A slot holding [t.empty] caches nothing. *)
  let slot t = match t.hints with Some h -> Hint.slot h | None -> t.off

  let start_for t (s : _ Hint.slot) ~inclusive k =
    let a = s.value in
    if s == t.off then t.head
    else if a == t.empty then begin
      s.stats.misses <- s.stats.misses + 1;
      M.event Hint.ev_miss;
      t.head
    end
    else
      let start =
        match a.live with
        | Null -> t.head
        | cand -> valid_start t ~inclusive k cand
      in
      if start != t.head then begin
        s.stats.hits <- s.stats.hits + 1;
        M.event Hint.ev_hit;
        start
      end
      else begin
        s.stats.stale <- s.stats.stale + 1;
        M.event Hint.ev_stale;
        (* A stale list hint is a dead or too-far node; drop it so the
           next operation does not re-walk its backlinks. *)
        s.value <- t.empty;
        t.head
      end

  (* Publish the predecessor an operation ends on as the domain's next
     hint (the head is never published).  Mutant structures never publish:
     their seeded protocol bugs can corrupt backlinks, and the sanitizer
     tests that use them want the honest code paths undisturbed. *)
  let publish t (s : _ Hint.slot) n =
    match (t.mutation, n) with
    | None, Node { anchor; _ } ->
        (* Repeats are common (quiet stretches, same-region traffic); the
           test skips their write barrier. *)
        if s.value != anchor then s.value <- anchor;
        s.stats.stores <- s.stats.stores + 1;
        M.event Hint.ev_store
    | _ -> ()

  (* Where a step leaves [n], the node its operation ended next to: the
     domain's slot publishes it as the next hint; [t.off] is never
     written; and a batch's own slot, which shares [t.off]'s counters,
     keeps the node itself in the batch's own anchor, silently, as the
     start candidate of the batch's next element. *)
  let carry t (s : _ Hint.slot) n =
    if s.stats != t.off.stats then publish t s n
    else if s != t.off then s.value.live <- n

  let hint_stats t = Option.map Hint.totals t.hints

  (* The end of TRYFLAG once [prev]'s flag is in place: finish the
     deletion (HELPFLAGGED, where DELETE ran it) and report whether we
     placed the flag.  A flag a concurrent deletion placed is finished
     altruistically, which the [No_help] mutant refuses. *)
  let flagged t prev target ours =
    if ours || not (no_help t) then help_flagged t prev target;
    ours

  (* ------------------------------------------------------------------ *)
  (* The operations.  A search does not return its window (n1, n2): it
     ends by calling [found], which runs the step its caller named by a
     [next] tag, with n1 and n2 as two arguments, so a search allocates
     nothing (without flambda a returned pair is a heap block).  The
     shared accesses are those of the search and its caller's next step,
     in the same order.  Each step gets the operation's slot [s] and ends
     with [carry], so the hint is published where the operation used to
     publish it: after its last shared access.

     The tags (see the header for the paper's steps), with what the step
     gets besides the window and what it returns:
     - [Window]: the pair (n1, n2), for the flagless and mutant deletes
       and [fold_range];
     - [Pred]: n1;
     - [Insert], with the element: DUPLICATE_KEY ([false]), or lines
       3-13 ([insert_attempt]);
     - [Delete]: NO_SUCH_KEY ([false]), or whether TRYFLAG on n2 placed
       the flag;
     - [Reflag], with the target: [false] if it is gone, else TRYFLAG's
       result from n1;
     - [Succ]: the binding of n2, helping and retrying past a marked n2. *)
  type (_, _, _) next =
    | Window : ('a, unit, 'a node * 'a node) next
    | Pred : ('a, unit, 'a node) next
    | Insert : ('a, 'a, bool) next
    | Delete : ('a, unit, bool) next
    | Reflag : ('a, 'a node, bool) next
    | Succ : ('a, unit, (K.t * 'a) option) next

  (* Lines 8-9 are written out at both of their sites, and line 3's
     first test inline: without flambda a call per step is measurable
     (single-domain 256-key mix on a 2-vCPU Xeon VM, 1,353 -> 1,107
     ns/op, better in 8/8 rounds). *)
  let rec search_from :
      type a x r.
      a t ->
      (a, x, r) next ->
      x ->
      a anchor Hint.slot ->
      bool ->
      K.t ->
      a node ->
      a succ ->
      r =
   fun t nx x s inclusive k curr cs ->
    match cs with
    | Clean { right = next; right_key; right_succ = ncell }
    | Flagged { right = next; right_key; right_succ = ncell }
    | Marked { right = next; right_key; right_succ = ncell } ->
        if goes_past t inclusive k next right_key then begin
          if
            is_marked (M.get ncell)
            &&
            match M.get (succ_of curr) with
            | Marked { right; _ } -> right != next
            | End | Clean _ | Flagged _ -> true
          then
            match skip_marked t curr next with
            | Clean { right = next; right_key; right_succ }
            | Flagged { right = next; right_key; right_succ }
            | Marked { right = next; right_key; right_succ } ->
                if goes_past t inclusive k next right_key then begin
                  M.event Ev.Curr_update;
                  search_from t nx x s inclusive k next (M.get right_succ)
                end
                else found t nx x s k curr next
            | End -> null ()
          else begin
            M.event Ev.Curr_update;
            search_from t nx x s inclusive k next (M.get ncell)
          end
        end
        else found t nx x s k curr next
    | End -> null ()

  and search :
      type a x r.
      a t ->
      (a, x, r) next ->
      x ->
      a anchor Hint.slot ->
      bool ->
      K.t ->
      a node ->
      r =
   fun t nx x s inclusive k start ->
    search_from t nx x s inclusive k start (M.get (succ_of start))

  (* The step [nx] names, on the window (n1, n2) of a search for [k]. *)
  and found :
      type a x r.
      a t ->
      (a, x, r) next ->
      x ->
      a anchor Hint.slot ->
      K.t ->
      a node ->
      a node ->
      r =
   fun t nx x s k n1 n2 ->
    match nx with
    | Window -> (n1, n2)
    | Pred ->
        carry t s n1;
        n1
    | Insert ->
        if holds n1 k then begin
          carry t s n1;
          false
        end
        else insert_attempt t s k x n1 n2
    | Delete ->
        (* The carry is n1, the predecessor (key strictly below [k]),
           usable by both inclusive and exclusive follow-up searches. *)
        let ok = holds n2 k && try_flag t n1 n2 in
        carry t s n1;
        ok
    | Reflag -> n2 == x && try_flag t n1 x
    | Succ ->
        (* If the candidate is marked (logically deleted), help its
           physical deletion and retry, so the returned node was regular
           while adjacent to its predecessor. *)
        if n2 == t.tail then None
        else if is_marked (M.get (succ_of n2)) then begin
          help_marked t n1 n2;
          find_ge_from t k n1
        end
        else binding n2

  (* TRYFLAG (Fig. 5): flag the predecessor of [target], then finish the
     deletion ([flagged]).  Returns whether we placed the flag: [false]
     also when a concurrent deletion placed it, or when [target] is no
     longer in the list.  The flagging C&S is tried only on a clean
     descriptor whose right is [target]; on any other it would fail. *)
  and try_flag : 'a. 'a t -> 'a node -> 'a node -> bool =
   fun t prev target ->
    match M.get (succ_of prev) with
    | Flagged { right; _ } when right == target -> flagged t prev target false
    | Clean { right; right_key; right_succ } as ps
      when right == target
           && M.cas (succ_of prev) ~kind:Ev.Flagging ~expect:ps
                (Flagged { right; right_key; right_succ }) ->
        flagged t prev target true
    | End | Clean _ | Flagged _ | Marked _ -> (
        (* The flagging C&S failed (or was doomed): re-examine the cell to
           find out why, exactly as the paper branches on the C&S result. *)
        match M.get (succ_of prev) with
        | Flagged { right; _ } when right == target ->
            flagged t prev target false
        | End | Clean _ | Flagged _ | Marked _ ->
            let prev = backtrack prev in
            search t Reflag target t.off false (key_of target) prev)

  (* INSERT (Fig. 5): [insert_attempt] is lines 3-13 (help a flagged
     predecessor, else C&S the new node in) and [insert_recover] lines
     14-18 after a failed C&S; both end in the search of line 19, whose
     [Insert] step comes back here. *)
  and insert_attempt :
      'a. 'a t -> 'a anchor Hint.slot -> K.t -> 'a -> 'a node -> 'a node -> bool
      =
   fun t s k elt prev next ->
    match M.get (succ_of prev) with
    | Flagged { right; _ } ->
        if no_help t then insert_attempt t s k elt prev next
        else begin
          (* Predecessor is flagged: help the pending deletion complete. *)
          M.event Ev.Help;
          help_flagged t prev right;
          search t Insert elt s true k prev
        end
    | Clean { right; _ } as ps when right == next ->
        (* The new node's cell starts from [ps] itself, (next,0,0): the
           linking C&S below takes [ps] out of [prev]'s cell, and if it
           fails the node is never linked, so no two linked cells hold one
           descriptor. *)
        let backlink = M.make Null in
        let succ = M.make ps in
        let anchor = { live = Null } in
        let nn = Node { key = k; elt; succ; backlink; anchor } in
        anchor.live <- nn;
        if t.use_flags then annotate_node t.tail nn;
        if
          M.cas (succ_of prev) ~kind:Ev.Insertion ~expect:ps
            (Clean { right = nn; right_key = k; right_succ = succ })
        then begin
          carry t s nn;
          true
        end
        else insert_recover t s k elt prev
    | End | Clean _ | Marked _ ->
        (* Stale view: the C&S would fail; recover as after a failure. *)
        insert_recover t s k elt prev

  and insert_recover :
      'a. 'a t -> 'a anchor Hint.slot -> K.t -> 'a -> 'a node -> bool =
   fun t s k elt prev ->
    (* Lines 14-18: if the failure was due to flagging, help; if due to
       marking, traverse backlinks to an unmarked node. *)
    (match M.get (succ_of prev) with
    | Flagged { right; _ } when not (no_help t) ->
        M.event Ev.Help;
        help_flagged t prev right
    | End | Clean _ | Flagged _ | Marked _ -> ());
    let prev = backtrack prev in
    search t Insert elt s true k prev

  (* Successor query: the smallest regular binding with key >= [k]. *)
  and find_ge_from : 'a. 'a t -> K.t -> 'a node -> (K.t * 'a) option =
   fun t k prev -> search t Succ () t.off false k prev

  (* SEARCH, INSERT and DELETE from the operation's slot: the domain's
     hint, validated, is the start, and the step publishes the node the
     operation ended next to. *)
  let pred t k =
    let s = slot t in
    search t Pred () s true k (start_for t s ~inclusive:true k)

  let find t k =
    match pred t k with
    | Node n when K.compare n.key k = 0 -> Some n.elt
    | _ -> None

  let mem t k = holds (pred t k) k

  let insert t k elt =
    let s = slot t in
    search t Insert elt s true k (start_for t s ~inclusive:true k)

  (* DELETE (Fig. 4), three-step protocol. *)
  let delete_flagged t k =
    let s = slot t in
    search t Delete () s false k (start_for t s ~inclusive:false k)

  (* Flagless ablation (EXP-8): Harris-style two-step deletion that still
     sets backlinks.  Because the predecessor is not pinned, a backlink can
     end up pointing at a node that is itself already marked, which lets
     chains of backlinks grow rightward - the pathology flags prevent. *)
  let rec mark_flagless prev del =
    M.set (backlink_of del) prev;
    match M.get (succ_of del) with
    | Clean { right; right_key; right_succ } as s ->
        if
          M.cas (succ_of del) ~kind:Ev.Marking ~expect:s
            (Marked { right; right_key; right_succ })
        then begin
          (anchor_of del).live <- Null;
          true
        end
        else mark_flagless prev del
    | End | Flagged _ | Marked _ -> false

  let delete_flagless t k =
    let prev, del = search t Window () t.off false k t.head in
    if not (holds del k) then false
    else begin
      let won = mark_flagless prev del in
      (* One direct unlink attempt; if [prev] is stale (e.g. itself marked)
         it does nothing, so fall back to a cleanup search exactly as
         Harris's delete does. *)
      let unlinked = unlink t prev del in
      (* Inclusive so the search traverses (and thus physically deletes) the
         marked node with key [k] itself. *)
      if not unlinked then ignore (search t Pred () t.off true k t.head);
      won
    end

  (* Seeded-bug deletions (see [mutation] above).  Single-process use in
     sanitizer tests; each returns what an honest delete would. *)
  let delete_mutant t m k =
    let prev, del = search t Window () t.off false k t.head in
    if not (holds del k) then false
    else
      match m with
      | Skip_flag ->
          (* Mark without flagging the predecessor: INV 3. *)
          M.set (backlink_of del) prev;
          try_mark t del;
          true
      | Double_mark ->
          (* Run the honest three-step deletion, then C&S the frozen marked
             descriptor once more: INV 2 (marked is terminal). *)
          let won = delete_flagged t k in
          (match M.get (succ_of del) with
          | Marked { right; right_key; right_succ } as s ->
              ignore
                (M.cas (succ_of del) ~kind:Ev.Marking ~expect:s
                   (Marked { right; right_key; right_succ }))
          | End | Clean _ | Flagged _ -> ());
          won
      | Unlink_unflagged -> (
          (* Physically delete [del] without flagging or marking anything:
             INV 3 (unlink from an unflagged predecessor). *)
          match M.get (succ_of prev) with
          | Clean { right; _ } as ps when right == del ->
              (match M.get (succ_of del) with
              | Clean { right; right_key; right_succ }
              | Flagged { right; right_key; right_succ }
              | Marked { right; right_key; right_succ } ->
                  ignore
                    (M.cas (succ_of prev) ~kind:Ev.Physical_delete ~expect:ps
                       (Clean { right; right_key; right_succ }))
              | End -> null ());
              true
          | End | Clean _ | Flagged _ | Marked _ -> true)
      | Backlink_right ->
          (* Point the victim's backlink at its *successor*: INV 4. *)
          (match right_of (M.get (succ_of del)) with
          | Null -> ()
          | nxt -> M.set (backlink_of del) nxt);
          true
      | No_help ->
          (* Not a one-shot corruption: [No_help] gates the altruistic help
             sites instead, and [delete] never routes it here. *)
          assert false

  let delete t k =
    match t.mutation with
    | Some No_help | None ->
        if t.use_flags then delete_flagged t k else delete_flagless t k
    | Some m -> delete_mutant t m k

  (* ------------------------------------------------------------------ *)
  (* Batched operations (the Traeff-Poeter "pragmatic" pattern): process
     the batch in key order, carrying each element's end-of-operation
     predecessor as the next element's search start.  The carry rides on
     a slot of the batch's own, which the steps fill through [carry] like
     a hint slot, but with the node itself in the batch's own anchor and
     without counting or announcing it.  It is re-validated exactly like a
     hint (a concurrent deletion may mark it between elements, and then it
     recovers through backlinks), so batches are safe under full
     concurrency; results come back in the caller's original order. *)
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
    let s = { Hint.value = { live = t.head }; stats = t.off.stats } in
    Array.iter
      (fun i ->
        let k = key_of arr.(i) in
        results.(i) <- f k arr.(i) s (valid_start t ~inclusive k s.value.live))
      order;
    (match t.hints with
    | Some h -> publish t (Hint.slot h) s.value.live
    | None -> ());
    Array.to_list results

  let insert_batch t kvs =
    run_batch t ~inclusive:true ~key_of:fst
      ~f:(fun k (_, e) s start -> search t Insert e s true k start)
      kvs

  let mem_batch t ks =
    run_batch t ~inclusive:true ~key_of:Fun.id
      ~f:(fun k _ s start -> holds (search t Pred () s true k start) k)
      ks

  let delete_batch t ks =
    match (t.mutation, t.use_flags) with
    | Some _, _ | None, false ->
        (* Ablation / mutant deletions do not start from a carry; fall
           back to the per-element path. *)
        List.map (delete t) ks
    | None, true ->
        run_batch t ~inclusive:false ~key_of:Fun.id
          ~f:(fun k _ s start -> search t Delete () s false k start)
          ks

  let find_ge t k = find_ge_from t k t.head

  (* Smallest key: successor of -inf.  Walk from the head, helping past
     marked nodes. *)
  let rec min_binding t =
    match right_of (M.get (succ_of t.head)) with
    | Null -> None
    | n ->
        if n == t.tail then None
        else if is_marked (M.get (succ_of n)) then begin
          help_marked t t.head n;
          min_binding t
        end
        else binding n

  let rec fold_range_from hi f acc = function
    | Node r when K.compare hi r.key >= 0 ->
        let s = M.get r.succ in
        fold_range_from hi f
          (if is_marked s then acc else f acc r.key r.elt)
          (right_of s)
    | Node _ | Sentinel _ | Null -> acc

  (* Fold over the regular bindings with lo <= key <= hi, in key order.
     Weakly consistent under concurrency: reflects inserts/deletes that
     race with the traversal, like an iterator over any lock-free list. *)
  let fold_range t ~lo ~hi f acc =
    if K.compare lo hi > 0 then acc
    else begin
      let _, start = search t Window () t.off false lo t.head in
      fold_range_from hi f acc start
    end

  (* Quiescent snapshot: regular (unmarked) nodes in key order. *)
  let fold t f acc =
    let rec go acc = function
      | Null -> acc
      | Node n ->
          let s = M.get n.succ in
          go (if is_marked s then acc else f acc n.key n.elt) (right_of s)
      | Sentinel n -> go acc (right_of (M.get n.succ))
    in
    go acc (right_of (M.get (succ_of t.head)))

  let to_list t = List.rev (fold t (fun acc k e -> (k, e) :: acc) [])
  let iter t f = fold t (fun () k e -> f k e) ()
  let length t = fold t (fun acc _ _ -> acc + 1) 0

  (* Structural validation at quiescence: strictly sorted keys (INV 1), no
     marked or flagged node, the head included, still physically linked,
     the head and the tail the only sentinels, [End] in the tail's cell
     and in no other, and every linked descriptor's [right_key] and
     [right_succ] physically its right node's key and cell. *)
  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let bk = bounded_key t.tail in
    (match (t.head, t.tail) with
    | Sentinel _, Sentinel _ -> ()
    | _ -> fail "fr-list: the head or the tail is not a sentinel");
    (* [ps] is the descriptor of [prev], the node last visited, which is
       the head or a regular node: at quiescence it is [Clean]. *)
    let rec go prev ps =
      match ps with
      | End -> fail "fr-list: the cell of %a holds End" BK.pp (bk prev)
      | Marked _ ->
          fail "fr-list: marked node %a linked at quiescence" BK.pp (bk prev)
      | Flagged _ ->
          fail "fr-list: flagged node %a at quiescence" BK.pp (bk prev)
      | Clean { right; right_key; right_succ } -> (
          match right with
          | Null -> fail "fr-list: tail sentinel not reached"
          | Sentinel n as next ->
              if next != t.tail then
                fail
                  "fr-list: a sentinel other than the tail is linked (after %a)"
                  BK.pp (bk prev);
              if right_key != K.any then
                fail "fr-list: right_key is not K.any before the tail";
              if right_succ != n.succ then
                fail "fr-list: right_succ is not the tail's cell";
              if M.get n.succ != End then fail "fr-list: tail has a successor"
          | Node n as next ->
              if right_key != n.key then
                fail "fr-list: right_key is not the right node's key (after %a)"
                  BK.pp (bk prev);
              if right_succ != n.succ then
                fail
                  "fr-list: right_succ is not the right node's cell (after %a)"
                  BK.pp (bk prev);
              if not (BK.lt (bk prev) (bk next)) then
                fail "fr-list: keys not strictly sorted (%a then %a)" BK.pp
                  (bk prev) BK.pp (bk next);
              go next (M.get n.succ))
    in
    go t.head (M.get (succ_of t.head))

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
      let bk = bounded_key t.tail in
      let cell_of n =
        let s = M.get (succ_of n) in
        {
          key = bk n;
          marked = is_marked s;
          flagged = is_flagged s;
          is_sentinel = n == t.head || n == t.tail;
          backlink_key =
            (match M.get (backlink_of n) with
            | Null -> None
            | b -> Some (bk b));
        }
      in
      let rec go acc n =
        let acc = cell_of n :: acc in
        match right_of (M.get (succ_of n)) with
        | Null -> List.rev acc
        | m -> go acc m
      in
      go [] t.head

    (* INV 1-4 restricted to the physically linked chain; INV 5 holds by
       construction.  Returns [Error] with a description of the first
       violation found. *)
    let check_now t =
      let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
      let bk = bounded_key t.tail in
      let rec walk m_node =
        let m_succ = M.get (succ_of m_node) in
        match right_of m_succ with
        | Null ->
            if m_node == t.tail then Ok ()
            else Error "chain ends before the tail sentinel"
        | n ->
            let n_succ = M.get (succ_of n) in
            let* () =
              if BK.lt (bk m_node) (bk n) then Ok ()
              else Error "INV1: keys not strictly sorted"
            in
            let* () =
              (* INV3/INV4: a logically deleted node (marked, with an
                 unmarked node linked to it) has a flagged predecessor and a
                 backlink pointing at that predecessor.  Only enforced in
                 flag mode; the ablation deliberately violates it. *)
              if t.use_flags && is_marked n_succ && not (is_marked m_succ)
              then
                if not (is_flagged m_succ) then
                  Error "INV3: predecessor of logically deleted node unflagged"
                else
                  match M.get (backlink_of n) with
                  | b when b == m_node -> Ok ()
                  | Node _ | Sentinel _ ->
                      Error "INV4: backlink not pointing at predecessor"
                  | Null ->
                      Error "INV4: backlink unset on logically deleted node"
              else Ok ()
            in
            let* () =
              (* INV3 second half: successor of a logically deleted node is
                 unmarked. *)
              if t.use_flags && is_marked n_succ && not (is_marked m_succ)
              then
                match right_of n_succ with
                | Null -> Ok ()
                | r ->
                    if is_marked (M.get (succ_of r)) then
                      Error "INV3: successor of logically deleted node marked"
                    else Ok ()
              else Ok ()
            in
            walk n
      in
      walk t.head

  end
end

(* [Make]'s text above with [K] and [M] bound to the int order and real
   atomics, generated by this directory's dune rule (tools/specialize). *)
module Atomic_int = Fr_list_atomic_int
module Atomic_string = Make (Lf_kernel.Ordered.String) (Lf_kernel.Atomic_mem)
module Counting_int = Make (Lf_kernel.Ordered.Int) (Lf_kernel.Counting_mem)
