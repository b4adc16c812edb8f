(* Protocol sanitizer: a [Mem.S] wrapper that validates every mutation of an
   annotated cell against the succ-field state machine of Fomitchev &
   Ruppert and online versions of the paper's invariants INV 1-5.

   The wrapped algorithms are functors over [Mem.S] with node types private
   to the functor body, so this memory cannot pattern-match a descriptor.
   Instead the algorithm declares each protocol-carrying cell right after
   [make] via [annotate], supplying a decoder from the cell's abstract
   contents to {!Lf_kernel.Protocol.succ_view} / [link_view].  The decoder
   closes over the owning node (so it can compare keys with the functor's
   own order) and names neighbouring cells through [stamp] - a pure field
   read on this memory, so decoding never re-enters the checker.

   What is checked, per successful C&S on a succ cell (writes to succ cells
   and C&S on backlinks are violations outright):

   - INV5 - the installed descriptor never has mark and flag both set;
   - INV2 - a marked descriptor is terminal: no C&S may displace it;
   - INV1 - the installed successor's key exceeds the owner's key;
   - Insertion  (r,0,0) -> (n,0,0): n is a freshly annotated, never-linked
     node whose own succ points at the displaced successor r;
   - Flagging   (r,0,0) -> (r,0,1): same successor; pins r;
   - Marking    (r,0,0) -> (r,1,0): same successor, the marked cell is
     currently pinned by a flagged predecessor (INV3), and r is not itself
     already marked (INV3, second half);
   - Physical_delete (b,0,1) -> (c,0,0): only from a flagged descriptor
     (INV3), b must be marked (INV3), and c must be b's frozen successor;
     unpins b.

   Backlinks accept only [set], the stored target must lie strictly left of
   the owner (INV4) and, once set, the backlink may never be re-pointed at
   a different node (the flag pins the predecessor precisely so that every
   helper writes the same value).

   Concurrency: under the deterministic simulator the processes share one
   domain cooperatively and an [M] access is a scheduling point, so taking
   a lock across it would deadlock the domain - and is unnecessary, because
   the bookkeeping that follows the access performs no effect and therefore
   runs before any other process.  Outside the simulator (real atomics,
   many domains) a global mutex makes access + bookkeeping one atomic unit,
   so transitions are observed in their true order.  [running_pid] tells
   the two situations apart, and doubles as the attribution source. *)

module P = Lf_kernel.Protocol
module Ev = Lf_kernel.Mem_event

module Make (M : Lf_kernel.Mem.S) = struct
  type 'a decoder =
    | Plain
    | Succ_d of ('a -> P.succ_view)
    | Link_d of ('a -> P.link_view)

  type 'a aref = {
    inner : 'a M.aref;
    id : int;
    init : 'a;  (* contents at [make]; decoded when [annotate] arrives *)
    mutable decode : 'a decoder;
  }

  (* Registry entry for an annotated succ cell. *)
  type cell_state = {
    cs_owner : string;
    cs_head : bool;
    cs_sentinel : bool;
    mutable cs_view : P.succ_view option;  (* last installed descriptor *)
    mutable cs_linked : bool;  (* ever referenced by another cell's view *)
    mutable cs_pinned : int;  (* flagged predecessors currently pointing here *)
  }

  type back_state = { bs_owner : string; mutable bs_target : int }

  let cells : (int, cell_state) Hashtbl.t = Hashtbl.create 256
  let links : (int, back_state) Hashtbl.t = Hashtbl.create 256
  let traces : (int, Violation.event Queue.t) Hashtbl.t = Hashtbl.create 16
  let mu = Mutex.create ()
  let id_counter = ref 0

  let with_lock f =
    if Option.is_some (Lf_dsim.Sim.running_pid ()) then f ()
    else begin
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
    end

  (* The process an access belongs to: the simulator's running process,
     else the domain. *)
  let pid () =
    match Lf_dsim.Sim.running_pid () with
    | Some p -> p
    | None -> (Domain.self () :> int)

  let reset () =
    with_lock (fun () ->
        Hashtbl.reset cells;
        Hashtbl.reset links;
        Hashtbl.reset traces)

  (* ---------------------------------------------------------------- *)
  (* Rendering.                                                        *)

  let owner_of id =
    if id = P.null_id then "<null>"
    else
      match Hashtbl.find_opt cells id with
      | Some c -> c.cs_owner
      | None -> Printf.sprintf "#%d" id

  let render_succ (v : P.succ_view) =
    Printf.sprintf "(right=%s,m=%d,f=%d)" (owner_of v.right_id)
      (Bool.to_int v.mark) (Bool.to_int v.flag)

  let render_chains () =
    let render_from id0 =
      let b = Buffer.create 64 in
      let rec go id seen n =
        if n > 64 then Buffer.add_string b " -> ..."
        else if List.mem id seen then Buffer.add_string b " -> (cycle)"
        else
          match Hashtbl.find_opt cells id with
          | None -> Buffer.add_string b (Printf.sprintf " -> #%d?" id)
          | Some c -> (
              if n > 0 then Buffer.add_string b " -> ";
              Buffer.add_string b c.cs_owner;
              match c.cs_view with
              | None -> Buffer.add_string b "?"
              | Some v ->
                  if v.mark then Buffer.add_string b "!m";
                  if v.flag then Buffer.add_string b "!f";
                  if v.right_id <> P.null_id then
                    go v.right_id (id :: seen) (n + 1))
      in
      go id0 [] 0;
      Buffer.contents b
    in
    Hashtbl.fold
      (fun id c acc -> if c.cs_head then render_from id :: acc else acc)
      cells []
    |> List.sort String.compare

  let snapshot () = with_lock render_chains

  let trace_cap = 32

  let record_event (e : Violation.event) =
    let q =
      match Hashtbl.find_opt traces e.pid with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.add traces e.pid q;
          q
    in
    Queue.push e q;
    if Queue.length q > trace_cap then ignore (Queue.pop q)

  let dump_traces () =
    Hashtbl.fold
      (fun pid q acc -> (pid, List.of_seq (Queue.to_seq q)) :: acc)
      traces []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let violation invariant culprit =
    Violation.Protocol_violation
      {
        invariant;
        culprit;
        trace = dump_traces ();
        snapshot = render_chains ();
      }

  (* ---------------------------------------------------------------- *)
  (* The state machine.                                                *)

  exception Fail of string

  let same_view (w : P.succ_view) (e : P.succ_view) =
    w.right_id = e.right_id && Bool.equal w.mark e.mark
    && Bool.equal w.flag e.flag

  (* Validate one *successful* C&S on an annotated succ cell and, when
     legal, apply its effects to the registry.  [e] decodes the displaced
     descriptor, [n] the installed one; physical-equality C&S guarantees
     [e] really was the cell's content.  Returns the violated invariant. *)
  let validate_succ (c : cell_state) ~kind ~(e : P.succ_view)
      ~(n : P.succ_view) =
    let fail inv = raise (Fail inv) in
    try
      (match c.cs_view with
      | Some w when not (same_view w e) ->
          fail "protocol: descriptor changed outside the checker"
      | _ -> ());
      if n.mark && n.flag then fail "INV5: mark and flag set together";
      if e.mark then fail "INV2: marked is terminal";
      (match kind with
      | Ev.Physical_delete -> ()
      | _ ->
          if e.flag then
            fail "protocol: flagged descriptor displaced by a non-unlink C&S");
      if not n.right_gt_owner then
        fail "INV1: successor key not greater than node key";
      (match kind with
      | Ev.Insertion ->
          if n.mark || n.flag then
            fail "protocol: insertion installs a marked or flagged descriptor";
          let nw =
            match Hashtbl.find_opt cells n.right_id with
            | Some nw -> nw
            | None -> fail "protocol: inserted node is not annotated"
          in
          if nw.cs_linked then fail "protocol: inserted node already linked";
          (match nw.cs_view with
          | Some v0 when v0.right_id = e.right_id && (not v0.mark) && not v0.flag
            ->
              ()
          | _ ->
              fail
                "protocol: inserted node does not point at the displaced \
                 successor");
          nw.cs_linked <- true
      | Ev.Flagging ->
          if n.mark || not n.flag then
            fail "protocol: flagging installs the wrong bits";
          if n.right_id <> e.right_id then
            fail "protocol: flagging changed the successor";
          (match Hashtbl.find_opt cells n.right_id with
          | Some t -> t.cs_pinned <- t.cs_pinned + 1
          | None -> ())
      | Ev.Marking ->
          if n.flag || not n.mark then
            fail "protocol: marking installs the wrong bits";
          if n.right_id <> e.right_id then
            fail "protocol: marking changed the successor";
          if c.cs_pinned = 0 then
            fail "INV3: marking without a flagged predecessor";
          (match Hashtbl.find_opt cells n.right_id with
          | Some s -> (
              match s.cs_view with
              | Some sv when sv.mark ->
                  fail
                    "INV3: successor of a newly marked node is already marked"
              | _ -> ())
          | None -> ())
      | Ev.Physical_delete ->
          if not e.flag then
            fail "INV3: physical delete from an unflagged predecessor";
          if n.mark || n.flag then
            fail "protocol: unlink installs a marked or flagged descriptor";
          let b =
            match Hashtbl.find_opt cells e.right_id with
            | Some b -> b
            | None -> fail "protocol: unlinked node is not annotated"
          in
          (match b.cs_view with
          | Some bv when bv.mark ->
              if n.right_id <> bv.right_id then
                fail
                  "protocol: unlink does not splice to the marked node's \
                   successor"
          | _ -> fail "INV3: physical delete of an unmarked node");
          b.cs_pinned <- max 0 (b.cs_pinned - 1)
      | Ev.Other_cas -> fail "protocol: unclassified C&S on a protocol cell");
      c.cs_view <- Some n;
      (if n.right_id <> P.null_id then
         match Hashtbl.find_opt cells n.right_id with
         | Some t -> t.cs_linked <- true
         | None -> ());
      None
    with Fail inv -> Some inv

  (* ---------------------------------------------------------------- *)
  (* Crash residue.

     The online state machine accepts crash-truncated protocols by
     construction: a crashed process simply stops C&S-ing, and every
     prefix of the three-step deletion leaves the registry in a state
     from which any transition the survivors attempt is still validated.
     What a crash changes is the *quiescent* picture - a structure at
     rest may legitimately hold a flagged predecessor and/or a marked,
     still-linked victim (the structures' own [check_invariants] rejects
     exactly that).  [residue] classifies those leftovers by the protocol
     window the victim died in, and [check_crash_residue] verifies the
     leftovers are ones a crash can explain: marks and flags only in the
     shapes some deletion prefix produces.  Call at quiescence (or inside
     [Sim.quiet]) after a chaos or crash-enumeration run. *)

  type residue = {
    r_flagged : (string * string) list;
        (* flagged cell's owner, interrupted window *)
    r_marked : string list; (* owners of marked, still-reachable cells *)
  }

  let fold_reachable f acc =
    (* Walk the registry's current views from the head cells; termination
       on (impossible) cyclic views is by the visited set. *)
    let visited = Hashtbl.create 64 in
    let rec go acc id =
      if Hashtbl.mem visited id then acc
      else begin
        Hashtbl.add visited id ();
        match Hashtbl.find_opt cells id with
        | None -> acc
        | Some c -> (
            let acc = f acc id c in
            match c.cs_view with
            | Some v when v.right_id <> P.null_id -> go acc v.right_id
            | _ -> acc)
      end
    in
    Hashtbl.fold
      (fun id c acc -> if c.cs_head then go acc id else acc)
      cells acc

  let residue () =
    with_lock (fun () ->
        let flagged, marked =
          fold_reachable
            (fun (fs, ms) _id c ->
              match c.cs_view with
              | Some v when v.flag ->
                  let window =
                    match Hashtbl.find_opt cells v.right_id with
                    | Some s when
                        (match s.cs_view with Some sv -> sv.mark | None -> false)
                      ->
                        "trymark->helpmarked"
                    | _ -> "tryflag->trymark"
                  in
                  ((c.cs_owner, window) :: fs, ms)
              | Some v when v.mark -> (fs, c.cs_owner :: ms)
              | _ -> (fs, ms))
            ([], [])
        in
        { r_flagged = List.rev flagged; r_marked = List.rev marked })

  let check_crash_residue () =
    with_lock (fun () ->
        fold_reachable
          (fun acc _id c ->
            match (acc, c.cs_view) with
            | (Error _ as e), _ -> e
            | Ok (), None -> Ok ()
            | Ok (), Some v ->
                if v.mark && v.flag then
                  Error
                    (Printf.sprintf "INV5: %s both marked and flagged"
                       c.cs_owner)
                else if v.mark && c.cs_pinned = 0 then
                  Error
                    (Printf.sprintf
                       "INV3: marked node %s still linked without a flagged \
                        predecessor"
                       c.cs_owner)
                else Ok ())
          (Ok ()))

  (* ---------------------------------------------------------------- *)
  (* Mem.S.                                                            *)

  let make v =
    let id =
      with_lock (fun () ->
          incr id_counter;
          !id_counter)
    in
    { inner = M.make v; id; init = v; decode = Plain }

  let get r = M.get r.inner
  let stamp r = r.id
  let event = M.event
  let pause = M.pause

  let annotate r (a : _ P.annot) =
    with_lock (fun () ->
        match a with
        | P.Succ { owner; head; sentinel; view } ->
            r.decode <- Succ_d view;
            let v0 = view r.init in
            Hashtbl.replace cells r.id
              {
                cs_owner = owner;
                cs_head = head;
                cs_sentinel = sentinel;
                cs_view = Some v0;
                cs_linked = head || sentinel;
                cs_pinned = 0;
              };
            if v0.right_id <> P.null_id then (
              match Hashtbl.find_opt cells v0.right_id with
              | Some c -> c.cs_linked <- true
              | None -> ())
        | P.Backlink { owner; view } ->
            r.decode <- Link_d view;
            let lv = view r.init in
            Hashtbl.replace links r.id
              { bs_owner = owner; bs_target = lv.target_id })

  let cas r ~kind ~expect v' =
    match r.decode with
    | Plain -> M.cas r.inner ~kind ~expect v'
    | Link_d _ ->
        let pid = pid () in
        with_lock (fun () ->
            let ok = M.cas r.inner ~kind ~expect v' in
            let b = Hashtbl.find links r.id in
            let ev =
              {
                Violation.pid;
                cell = r.id;
                owner = b.bs_owner;
                action =
                  Ev.cas_kind_to_string kind ^ (if ok then " ok" else " fail");
                detail = "on a backlink";
              }
            in
            record_event ev;
            raise (violation "protocol: C&S on a backlink" ev))
    | Succ_d dec ->
        let pid = pid () in
        with_lock (fun () ->
            let ok = M.cas r.inner ~kind ~expect v' in
            let c = Hashtbl.find cells r.id in
            let e = dec expect and n = dec v' in
            let ev =
              {
                Violation.pid;
                cell = r.id;
                owner = c.cs_owner;
                action =
                  Ev.cas_kind_to_string kind ^ (if ok then " ok" else " fail");
                detail = render_succ e ^ " -> " ^ render_succ n;
              }
            in
            record_event ev;
            if ok then (
              match validate_succ c ~kind ~e ~n with
              | Some inv -> raise (violation inv ev)
              | None -> ());
            ok)

  let set r v =
    match r.decode with
    | Plain -> M.set r.inner v
    | Succ_d dec ->
        let pid = pid () in
        with_lock (fun () ->
            M.set r.inner v;
            let c = Hashtbl.find cells r.id in
            let n = dec v in
            let ev =
              {
                Violation.pid;
                cell = r.id;
                owner = c.cs_owner;
                action = "set";
                detail = "<- " ^ render_succ n;
              }
            in
            record_event ev;
            c.cs_view <- Some n;
            raise
              (violation "protocol: unconditional store to a succ field" ev))
    | Link_d dec ->
        let pid = pid () in
        with_lock (fun () ->
            M.set r.inner v;
            let b = Hashtbl.find links r.id in
            let lv = dec v in
            let ev =
              {
                Violation.pid;
                cell = r.id;
                owner = b.bs_owner;
                action = "set";
                detail = "backlink <- " ^ owner_of lv.target_id;
              }
            in
            record_event ev;
            if not lv.left_of_owner then
              raise (violation "INV4: backlink points right" ev);
            if b.bs_target <> P.null_id && b.bs_target <> lv.target_id then
              raise (violation "INV4: backlink re-pointed" ev);
            b.bs_target <- lv.target_id)
end
