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

   Layout, as in [Fr_skiplist].  A node is an inline record, so [right],
   backlinks and hint anchors point straight at it.  Keys are stored
   unboxed; the sentinels carry [K.any], and no code compares a sentinel's
   key: the tail is known by identity, and only sentinels have no element.
   A succ descriptor also carries a copy of its [right] node's key
   ([right_key]; [K.any] when [right] is the tail).  A node's key never
   changes, so the copy is exact, and SEARCHFROM decides whether to step
   on [right_key] without loading the next node ("Skiplists with
   Foresight").  C&S still compares whole descriptors physically; the copy
   never decides a C&S, and it is not a deviation from the paper.

   [create ~use_flags:false] builds the EXP-8 ablation variant: two-step
   Harris-style deletion that still sets backlinks but never flags the
   predecessor, exhibiting the rightward-growing backlink chains the flag bit
   exists to prevent. *)

module type S = Fr_list_intf.S

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) = struct
  module BK = Lf_kernel.Ordered.Bounded (K)
  module Ev = Lf_kernel.Mem_event
  module H = Lf_kernel.Hint.Make (M)

  type key = K.t

  (* [Null] is the tail's [right], an unset backlink and an empty anchor;
     nothing else. *)
  type 'a node =
    | Null
    | Node of {
        key : K.t; (* [K.any] at the sentinels *)
        elt : 'a option; (* [None] only at the head and tail sentinels *)
        succ : 'a succ M.aref;
        backlink : 'a node M.aref;
        anchor : 'a anchor;
      }

  (* [right_key] is physically [right]'s key ([K.any] for the tail). *)
  and 'a succ = { right : 'a node; right_key : K.t; mark : bool; flag : bool }

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
    hints : 'a anchor H.t option;
        (* per-domain predecessor cache; [None] = ablation (hints off) *)
  }

  let name = "fr-list"

  (* Field access.  Only the tail has a [Null] successor, and no routine
     below dereferences the successor of the tail (searches stop strictly
     before it and it is never deleted), nor an unset backlink. *)
  let null () = invalid_arg "Fr_list: dereferenced a null link"
  let key_of = function Node n -> n.key | Null -> null ()
  let succ_of = function Node n -> n.succ | Null -> null ()
  let backlink_of = function Node n -> n.backlink | Null -> null ()
  let anchor_of = function Node n -> n.anchor | Null -> null ()

  (* [n] is a regular node holding key [k].  Sentinels carry [K.any],
     which may also be a live key, so they must never match: only
     sentinels have no element. *)
  let holds n k =
    match n with
    | Node { key; elt = Some _; _ } -> K.compare key k = 0
    | Node _ | Null -> false

  (* The binding a regular node holds; [None] at the sentinels. *)
  let binding = function
    | Node { key; elt = Some e; _ } -> Some (key, e)
    | Node _ | Null -> None

  (* A node's key with the paper's sentinel values, for checked-memory
     reports and [Debug]: a node without an element is the tail or the
     head. *)
  let bounded_key tail : _ node -> K.t Lf_kernel.Ordered.bounded = function
    | Node { elt = None; _ } as n -> if n == tail then Pos_inf else Neg_inf
    | Node n -> Mid n.key
    | Null -> null ()

  (* Declare a node's cells to a checked memory.  The decoders close over
     the node's key so they can compare against neighbours with the
     functor's own order; neighbour cells are named by [M.stamp], a pure
     field read on checked memories.  Guarded by [M.stamp <> 0] so
     unchecked memories (where annotation is a no-op anyway) do not even
     pay for rendering the owner key on the insert path. *)
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

  let annotate_node ?(head = false) ?(sentinel = false) tail = function
    | Node n as node when M.stamp n.succ <> 0 ->
        let key = bounded_key tail node in
        let owner = Format.asprintf "%a" BK.pp key in
        M.annotate n.succ
          (Lf_kernel.Protocol.Succ
             { owner; head; sentinel; view = succ_view_of tail key });
        M.annotate n.backlink
          (Lf_kernel.Protocol.Backlink
             { owner; view = link_view_of tail key })
    | Node _ | Null -> ()

  (* Every node's [backlink] cell is made before its [succ] cell: the
     simulator numbers cells as they are made, and the pinned simulator
     and model-check reports (bench/results) were recorded in that
     order. *)
  let create_with ?mutation ?(use_hints = true) ~use_flags () =
    let backlink = M.make Null in
    let succ =
      M.make { right = Null; right_key = K.any; mark = false; flag = false }
    in
    let tail =
      Node { key = K.any; elt = None; succ; backlink; anchor = { live = Null } }
    in
    let backlink = M.make Null in
    let succ =
      M.make { right = tail; right_key = K.any; mark = false; flag = false }
    in
    let head =
      Node { key = K.any; elt = None; succ; backlink; anchor = { live = Null } }
    in
    (* The flagless ablation deliberately breaks the protocol; it stays
       unannotated so it can run under a checked memory too. *)
    if use_flags then begin
      annotate_node ~sentinel:true tail tail;
      annotate_node ~head:true ~sentinel:true tail head
    end;
    let hints = if use_hints then Some (H.create ()) else None in
    { head; tail; use_flags; mutation; hints }

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
     simply fail, so we skip the attempt. *)
  let help_marked t prev del =
    let ds = M.get (succ_of del) in
    let expect = M.get (succ_of prev) in
    if
      expect.right == del
      && (not expect.mark)
      && Bool.equal expect.flag t.use_flags
    then
      ignore
        (M.cas (succ_of prev) ~kind:Ev.Physical_delete ~expect
           {
             right = ds.right;
             right_key = ds.right_key;
             mark = false;
             flag = false;
           })

  (* HELPFLAGGED / TRYMARK (Fig. 4).  [prev] is flagged with successor [del]:
     set the backlink, mark [del] (helping any deletion of [del]'s own
     successor that blocks the marking), then physically delete it. *)
  let rec help_flagged t prev del =
    M.set (backlink_of del) prev;
    if not (M.get (succ_of del)).mark then try_mark t del;
    help_marked t prev del

  and try_mark t del =
    (* Repeat until [del] is marked.  A flagged successor field means the
       deletion of [del]'s successor is in progress: help it finish first
       (the flag blocks our marking C&S). *)
    let s = M.get (succ_of del) in
    if s.mark then ()
    else if s.flag then
      if no_help t then try_mark t del
      else begin
        M.event Ev.Help;
        help_flagged t del s.right;
        try_mark t del
      end
    else if
      M.cas (succ_of del) ~kind:Ev.Marking ~expect:s { s with mark = true }
    then (anchor_of del).live <- Null
    else try_mark t del

  (* SEARCHFROM (Fig. 3).  Starting from [curr] (whose key must be <= k),
     [cs] being the descriptor last read from it, returns two nodes (n1, n2)
     such that at some instant during the search n1.right = n2 and n1.key
     <= k < n2.key.  With [inclusive:false] this is the paper's
     SearchFrom(k - eps, .): n1.key < k <= n2.key.  Marked nodes
     encountered along the way are physically deleted (helping).

     [goes_past] is the test of lines 2 and 7, [next.key <= k], made on
     [cs.right_key], so no step loads [next] to decide.  [search_from]
     carries lines 2-9 and [skip_marked] the loop of lines 3-6.  When
     that loop does not run, [next] is unchanged and line 7 would repeat
     line 2's test, so it is skipped: an unobstructed step makes one key
     comparison. *)
  let goes_past t inclusive k cs =
    cs.right != t.tail
    &&
    let c = K.compare cs.right_key k in
    if inclusive then c <= 0 else c < 0

  (* Line 3's test: [next] is marked, unless both [curr] and [next] are
     marked and adjacent (in which case [curr] was marked first and we may
     travel through both). *)
  let skips curr next =
    (M.get (succ_of next)).mark
    &&
    let cs = M.get (succ_of curr) in
    (not cs.mark) || cs.right != next

  (* Lines 4-6, repeated while line 3's test holds; returns the descriptor
     from which the last line 6 read [next]. *)
  let rec skip_marked t curr next =
    if (M.get (succ_of curr)).right == next then help_marked t curr next;
    let cs = M.get (succ_of curr) in
    M.event Ev.Next_update;
    if skips curr cs.right then skip_marked t curr cs.right else cs

  (* Lines 8-9 are written out at both of their sites, and line 3's
     first test inline: without flambda a call per step is measurable
     (single-domain 256-key mix on a 2-vCPU Xeon VM, 1,353 -> 1,107
     ns/op, better in 8/8 rounds). *)
  let rec search_from t inclusive k curr cs =
    if goes_past t inclusive k cs then begin
      let next = cs.right in
      if
        (M.get (succ_of next)).mark
        &&
        let cs = M.get (succ_of curr) in
        (not cs.mark) || cs.right != next
      then begin
        let cs = skip_marked t curr next in
        if goes_past t inclusive k cs then begin
          let next = cs.right in
          M.event Ev.Curr_update;
          search_from t inclusive k next (M.get (succ_of next))
        end
        else (curr, cs.right)
      end
      else begin
        M.event Ev.Curr_update;
        search_from t inclusive k next (M.get (succ_of next))
      end
    end
    else (curr, cs.right)

  let search t inclusive k start =
    search_from t inclusive k start (M.get (succ_of start))

  (* Chain-of-backlinks traversal (TRYFLAG line 9-10, INSERT line 17-18):
     walk left until an unmarked node.  Backlink chains are key-decreasing
     and bottom out at the head sentinel, so this terminates. *)
  let rec backtrack p =
    if (M.get (succ_of p)).mark then begin
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
    if (M.get (succ_of n)).mark then begin
      M.event Ev.Backlink_step;
      match M.get (backlink_of n) with Null -> t.head | p -> unmark_left t p
    end
    else n

  (* A validated start node for a search with target [k], or [None] if the
     candidate (after backlink recovery) is unusable and the search must
     begin at the head.  Candidates are regular nodes (hint anchors and
     batch carries never hold the tail), so [s]'s key is a real key. *)
  let valid_start t ~inclusive k cand =
    let s = unmark_left t cand in
    if s == t.head then None
    else
      let c = K.compare (key_of s) k in
      if (if inclusive then c <= 0 else c < 0) then Some s else None

  let start_for t ~inclusive k =
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
              | Null -> None
              | cand -> valid_start t ~inclusive k cand
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
    | Some h, None when n != t.head -> H.store h (anchor_of n)
    | _ -> ()

  let hint_stats t = Option.map H.totals t.hints

  (* TRYFLAG (Fig. 5): flag the predecessor of [target].  Returns
     [(Some prev, true)]  - we placed the flag,
     [(Some prev, false)] - a concurrent deletion already placed it,
     [(None, false)]      - [target] is no longer in the list. *)
  let rec try_flag t prev target =
    let ps = M.get (succ_of prev) in
    if ps.right == target && (not ps.mark) && ps.flag then (Some prev, false)
    else if
      ps.right == target && (not ps.mark) && (not ps.flag)
      && M.cas (succ_of prev) ~kind:Ev.Flagging ~expect:ps
           { ps with flag = true }
    then (Some prev, true)
    else begin
      (* The flagging C&S failed (or was doomed): re-examine the cell to
         find out why, exactly as the paper branches on the C&S result. *)
      let ps' = M.get (succ_of prev) in
      if ps'.right == target && (not ps'.mark) && ps'.flag then
        (Some prev, false)
      else begin
        let prev = backtrack prev in
        let prev, del = search t false (key_of target) prev in
        if del != target then (None, false) else try_flag t prev target
      end
    end

  (* SEARCH (Fig. 3).  Each [*_from] entry point takes a validated start
     node and returns the operation's result together with a "carry": the
     node the operation ended next to, which the caller publishes as the
     domain's next hint (or threads to the next element of a batch). *)
  let find_from t k start =
    let curr, _ = search t true k start in
    match curr with
    | Node { elt; _ } when holds curr k -> (elt, curr)
    | _ -> (None, curr)

  let find t k =
    let r, carry = find_from t k (start_for t ~inclusive:true k) in
    publish t carry;
    r

  let mem t k = Option.is_some (find t k)

  (* INSERT (Fig. 5): [insert_attempt] is lines 3-13 (help a flagged
     predecessor, else C&S the new node in), [insert_recover] lines 14-18
     after a failed C&S, and [insert_relocate] the search of line 2/19,
     the entry point from a validated start node. *)
  let rec insert_attempt t k elt prev next =
    let ps = M.get (succ_of prev) in
    if ps.flag then
      if no_help t then insert_attempt t k elt prev next
      else begin
        (* Predecessor is flagged: help the pending deletion complete. *)
        M.event Ev.Help;
        help_flagged t prev ps.right;
        insert_relocate t k elt prev
      end
    else if ps.mark || ps.right != next then
      (* Stale view: the C&S would fail; recover as after a failure. *)
      insert_recover t k elt prev
    else begin
      (* [ps.right] is [next], so [ps.right_key] is its key. *)
      let backlink = M.make Null in
      let succ =
        M.make
          { right = next; right_key = ps.right_key; mark = false; flag = false }
      in
      let anchor = { live = Null } in
      let nn = Node { key = k; elt = Some elt; succ; backlink; anchor } in
      anchor.live <- nn;
      if t.use_flags then annotate_node t.tail nn;
      if
        M.cas (succ_of prev) ~kind:Ev.Insertion ~expect:ps
          { right = nn; right_key = k; mark = false; flag = false }
      then (true, nn)
      else insert_recover t k elt prev
    end

  and insert_recover t k elt prev =
    (* Lines 14-18: if the failure was due to flagging, help; if due to
       marking, traverse backlinks to an unmarked node. *)
    let ps = M.get (succ_of prev) in
    if ps.flag && not (no_help t) then begin
      M.event Ev.Help;
      help_flagged t prev ps.right
    end;
    insert_relocate t k elt (backtrack prev)

  and insert_relocate t k elt prev =
    let prev, next = search t true k prev in
    if holds prev k then (false, prev) else insert_attempt t k elt prev next

  let insert t k elt =
    let ok, carry = insert_relocate t k elt (start_for t ~inclusive:true k) in
    publish t carry;
    ok

  (* DELETE (Fig. 4), three-step protocol.  The carry is the predecessor
     (key strictly below [k]), usable by both inclusive and exclusive
     follow-up searches. *)
  let delete_flagged_from t k start =
    let prev, del = search t false k start in
    if not (holds del k) then (false, prev)
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

  let delete_flagged t k =
    let ok, carry = delete_flagged_from t k (start_for t ~inclusive:false k) in
    publish t carry;
    ok

  (* Flagless ablation (EXP-8): Harris-style two-step deletion that still
     sets backlinks.  Because the predecessor is not pinned, a backlink can
     end up pointing at a node that is itself already marked, which lets
     chains of backlinks grow rightward - the pathology flags prevent. *)
  let rec mark_flagless prev del =
    M.set (backlink_of del) prev;
    let s = M.get (succ_of del) in
    if s.mark then false
    else if
      M.cas (succ_of del) ~kind:Ev.Marking ~expect:s { s with mark = true }
    then begin
      (anchor_of del).live <- Null;
      true
    end
    else mark_flagless prev del

  let delete_flagless t k =
    let prev, del = search t false k t.head in
    if not (holds del k) then false
    else begin
      let won = mark_flagless prev del in
      (* One direct unlink attempt; if [prev] is stale (e.g. itself marked)
         it does nothing, so fall back to a cleanup search exactly as
         Harris's delete does. *)
      let ds = M.get (succ_of del) in
      let expect = M.get (succ_of prev) in
      let unlinked =
        expect.right == del && (not expect.mark) && (not expect.flag)
        && M.cas (succ_of prev) ~kind:Ev.Physical_delete ~expect
             {
               right = ds.right;
               right_key = ds.right_key;
               mark = false;
               flag = false;
             }
      in
      (* Inclusive so the search traverses (and thus physically deletes) the
         marked node with key [k] itself. *)
      if not unlinked then ignore (search t true k t.head);
      won
    end

  (* Seeded-bug deletions (see [mutation] above).  Single-process use in
     sanitizer tests; each returns what an honest delete would. *)
  let delete_mutant t m k =
    let prev, del = search t false k t.head in
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
          let s = M.get (succ_of del) in
          if s.mark then
            ignore
              (M.cas (succ_of del) ~kind:Ev.Marking ~expect:s
                 { s with mark = true });
          won
      | Unlink_unflagged ->
          (* Physically delete [del] without flagging or marking anything:
             INV 3 (unlink from an unflagged predecessor). *)
          let ps = M.get (succ_of prev) in
          if ps.right == del && (not ps.mark) && not ps.flag then begin
            let ds = M.get (succ_of del) in
            ignore
              (M.cas (succ_of prev) ~kind:Ev.Physical_delete ~expect:ps
                 {
                   right = ds.right;
                   right_key = ds.right_key;
                   mark = false;
                   flag = false;
                 })
          end;
          true
      | Backlink_right ->
          (* Point the victim's backlink at its *successor*: INV 4. *)
          (match (M.get (succ_of del)).right with
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
        let k = key_of arr.(i) in
        let start =
          match valid_start t ~inclusive k !carry with
          | Some s -> s
          | None -> t.head
        in
        let ok, c = f k arr.(i) start in
        results.(i) <- ok;
        carry := c)
      order;
    publish t !carry;
    Array.to_list results

  let insert_batch t kvs =
    run_batch t ~inclusive:true ~key_of:fst
      ~f:(fun k (_, e) start -> insert_relocate t k e start)
      kvs

  let mem_batch t ks =
    run_batch t ~inclusive:true ~key_of:Fun.id
      ~f:(fun k _ start ->
        let r, c = find_from t k start in
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
          ~f:(fun k _ start -> delete_flagged_from t k start)
          ks

  (* Successor query: the smallest regular binding with key >= [k].  If the
     candidate is marked (logically deleted), help its physical deletion and
     retry, so the returned node was regular while adjacent to its
     predecessor. *)
  let rec find_ge_from t k prev =
    let n1, n2 = search t false k prev in
    if n2 == t.tail then None
    else if (M.get (succ_of n2)).mark then begin
      help_marked t n1 n2;
      find_ge_from t k n1
    end
    else binding n2

  let find_ge t k = find_ge_from t k t.head

  (* Smallest key: successor of -inf.  Walk from the head, helping past
     marked nodes. *)
  let rec min_binding t =
    match (M.get (succ_of t.head)).right with
    | Null -> None
    | n ->
        if n == t.tail then None
        else if (M.get (succ_of n)).mark then begin
          help_marked t t.head n;
          min_binding t
        end
        else binding n

  let rec fold_range_from t hi f acc n =
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
          fold_range_from t hi f acc s.right

  (* Fold over the regular bindings with lo <= key <= hi, in key order.
     Weakly consistent under concurrency: reflects inserts/deletes that
     race with the traversal, like an iterator over any lock-free list. *)
  let fold_range t ~lo ~hi f acc =
    if K.compare lo hi > 0 then acc
    else begin
      let _, start = search t false lo t.head in
      fold_range_from t hi f acc start
    end

  (* Quiescent snapshot: regular (unmarked) nodes in key order. *)
  let fold t f acc =
    let rec go acc = function
      | Null -> acc
      | Node n -> (
          let s = M.get n.succ in
          match n.elt with
          | Some e when not s.mark -> go (f acc n.key e) s.right
          | _ -> go acc s.right)
    in
    go acc (M.get (succ_of t.head)).right

  let to_list t = List.rev (fold t (fun acc k e -> (k, e) :: acc) [])
  let iter t f = fold t (fun () k e -> f k e) ()
  let length t = fold t (fun acc _ _ -> acc + 1) 0

  (* Structural validation at quiescence: strictly sorted keys (INV 1), no
     marked or flagged node still physically linked, proper sentinels, and
     every linked descriptor's [right_key] physically its right node's
     key. *)
  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let bk = bounded_key t.tail in
    (* [ps] is the descriptor of [prev], the node last visited. *)
    let rec go prev ps =
      match ps.right with
      | Null -> fail "fr-list: tail sentinel not reached"
      | Node n as next ->
          if ps.right_key != n.key then
            fail "fr-list: right_key is not the right node's key (after %a)"
              BK.pp (bk prev);
          if not (BK.lt (bk prev) (bk next)) then
            fail "fr-list: keys not strictly sorted (%a then %a)" BK.pp
              (bk prev) BK.pp (bk next);
          let s = M.get n.succ in
          if next == t.tail then begin
            if s.right != Null then fail "fr-list: tail has a successor"
          end
          else begin
            if s.mark then
              fail "fr-list: marked node with key %a linked at quiescence"
                K.pp n.key;
            if s.flag then
              fail "fr-list: flagged node with key %a at quiescence" K.pp
                n.key;
            go next s
          end
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
          marked = s.mark;
          flagged = s.flag;
          is_sentinel = n == t.head || n == t.tail;
          backlink_key =
            (match M.get (backlink_of n) with
            | Null -> None
            | b -> Some (bk b));
        }
      in
      let rec go acc n =
        let acc = cell_of n :: acc in
        match (M.get (succ_of n)).right with
        | Null -> List.rev acc
        | m -> go acc m
      in
      go [] t.head

    (* INV 1-5 restricted to the physically linked chain.  Returns [Error]
       with a description of the first violation found. *)
    let check_now t =
      let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
      let bk = bounded_key t.tail in
      let rec walk m_node =
        let m_succ = M.get (succ_of m_node) in
        match m_succ.right with
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
                  match M.get (backlink_of n) with
                  | b when b == m_node -> Ok ()
                  | Node _ ->
                      Error "INV4: backlink not pointing at predecessor"
                  | Null ->
                      Error "INV4: backlink unset on logically deleted node"
              else Ok ()
            in
            let* () =
              (* INV3 second half: successor of a logically deleted node is
                 unmarked. *)
              if t.use_flags && n_succ.mark && not m_succ.mark then
                match n_succ.right with
                | Null -> Ok ()
                | r ->
                    if (M.get (succ_of r)).mark then
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
