(* EXP-8: what the flag bit buys (Section 3.1).

   The flag pins a predecessor while its successor is being deleted, which
   guarantees a backlink is never set to point at a marked node - so chains
   of backlinks cannot grow rightward and cannot be re-traversed profitably
   by an adversary.

   (a) Deterministic demonstration: with flags disabled, two parked
       deletions of adjacent nodes produce a *stale backlink* - a reachable
       marked node whose backlink points at another marked node.  With flags
       enabled the same schedule cannot reach that state (the second
       deletion's flag forces the first to help), and INV 3/4 hold at every
       step.

   (b) Statistical ablation: under hotspot contention, flagless runs show
       more and longer backlink walks per operation. *)

module FRS = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module Sim = Lf_dsim.Sim
module Ev = Lf_kernel.Mem_event

(* Park both deleters of the adjacent keys 20 and 30 just before their
   marking C&S (backlinks already written), then release them in order. *)
let deterministic_part () =
  Tables.subsection "(a) stale-backlink construction, flagless vs flags";
  let run_mode ~use_flags =
    let t = FRS.create_with ~use_flags () in
    ignore
      (Sim.run
         [|
           (fun _ ->
             List.iter (fun k -> ignore (FRS.insert t k 0)) [ 10; 20; 30; 40 ]);
         |]);
    let d0 _ = ignore (FRS.delete t 20) in
    let d1 _ = ignore (FRS.delete t 30) in
    let stale_seen = ref false in
    let inv_violation = ref None in
    let inspect () =
      let chain = Sim.quiet (fun () -> FRS.Debug.physical_chain t) in
      (* A marked node whose backlink names a key that is itself marked or
         already unlinked. *)
      let marked_keys =
        List.filter_map
          (fun (c : FRS.Debug.cell) ->
            match c.key with
            | Lf_kernel.Ordered.Mid k when c.marked -> Some k
            | _ -> None)
          chain
      in
      let present =
        List.filter_map
          (fun (c : FRS.Debug.cell) ->
            match c.key with Lf_kernel.Ordered.Mid k -> Some k | _ -> None)
          chain
      in
      List.iter
        (fun (c : FRS.Debug.cell) ->
          if c.marked then
            match c.backlink_key with
            | Some (Lf_kernel.Ordered.Mid b) ->
                if List.mem b marked_keys || not (List.mem b present) then
                  stale_seen := true
            | _ -> ())
        chain;
      if use_flags then
        match Sim.quiet (fun () -> FRS.Debug.check_now t) with
        | Ok () -> ()
        | Error e -> inv_violation := Some e
    in
    let phase = ref 0 in
    let marking_parked st pid =
      Sim.pending_kind st pid = Some (Lf_dsim.Sim_effect.Cas Ev.Marking)
    in
    let policy st =
      inspect ();
      match !phase with
      | 0 ->
          (* park d0 at its marking CAS (flagless) or run it through its
             flagging first (flags mode parks at marking too). *)
          if marking_parked st 0 then begin
            phase := 1;
            Some 1
          end
          else if Sim.is_finished st 0 then begin
            phase := 2;
            Some 1
          end
          else Some 0
      | 1 ->
          (* park d1 at its marking CAS as well *)
          if marking_parked st 1 then begin
            phase := 2;
            Some 0
          end
          else if Sim.is_finished st 1 then begin
            phase := 2;
            Some 0
          end
          else Some 1
      | _ ->
          (* release d0 to completion, then d1 *)
          if not (Sim.is_finished st 0) then Some 0
          else if not (Sim.is_finished st 1) then Some 1
          else None
    in
    ignore (Sim.run ~policy:(Sim.Custom policy) [| d0; d1 |]);
    inspect ();
    Sim.quiet (fun () -> FRS.check_invariants t);
    (!stale_seen, !inv_violation)
  in
  let stale_nf, _ = run_mode ~use_flags:false in
  let stale_f, inv_f = run_mode ~use_flags:true in
  Tables.note "flagless: backlink to a marked/unlinked node constructed: %b"
    stale_nf;
  Tables.note "flags:    same schedule produces stale backlink: %b" stale_f;
  Tables.note "flags:    INV 3/4 violation observed at any step: %s"
    (match inv_f with None -> "none" | Some e -> e);
  Bench_json.emit_part ~exp:"exp8" ~part:"stale_backlink"
    Bench_json.
      [ ("flagless_stale", B stale_nf); ("flags_stale", B stale_f) ];
  (stale_nf, stale_f)

let statistical_part () =
  Tables.subsection "(b) backlink walks under hotspot contention";
  let widths = [ 6; 4; 14; 14; 12; 12 ] in
  Tables.row widths
    [ "mode"; "q"; "backlinks"; "essential"; "mean bl/op"; "max bl/op" ];
  let out = ref [] in
  List.iter
    (fun q ->
      List.iter
        (fun use_flags ->
          let t = FRS.create_with ~use_flags () in
          let total_bl = ref 0 and total_es = ref 0 in
          let max_bl = ref 0 and ops = ref 0 in
          List.iter
            (fun seed ->
              let ops_rec =
                let module D = Lf_workload.Dict.Of (FRS) in
                let ops_c = D.make t in
                Lf_workload.Sim_driver.run_mixed ~policy:(Sim.Random seed)
                  ~procs:q ~ops_per_proc:80 ~key_range:8
                  ~mix:{ insert_pct = 45; delete_pct = 45 }
                  ~seed ops_c
              in
              List.iter
                (fun (op : Sim.op_record) ->
                  total_bl := !total_bl + op.op_backlinks;
                  total_es := !total_es + op.essential;
                  if op.op_backlinks > !max_bl then max_bl := op.op_backlinks;
                  incr ops)
                ops_rec.ops)
            [ 1; 2; 3; 4; 5 ];
          out := (use_flags, q, !total_bl, !max_bl) :: !out;
          Bench_json.emit_part ~exp:"exp8" ~part:"backlink_walks"
            Bench_json.
              [
                ("mode", S (if use_flags then "flags" else "noflag"));
                ("q", I q);
                ("backlinks", I !total_bl);
                ("essential", I !total_es);
                ("mean_bl_per_op",
                 F (float_of_int !total_bl /. float_of_int !ops));
                ("max_bl_per_op", I !max_bl);
              ];
          Tables.row widths
            [
              (if use_flags then "flags" else "noflag");
              string_of_int q;
              string_of_int !total_bl;
              string_of_int !total_es;
              Printf.sprintf "%.3f" (float_of_int !total_bl /. float_of_int !ops);
              string_of_int !max_bl;
            ])
        [ true; false ])
    [ 2; 4; 8; 16 ];
  Tables.note
    "flags trade searches for short backlink recoveries: at high contention";
  Tables.note
    "the flagged variant does MORE backlink hops but LESS total essential";
  Tables.note
    "work.  The unbounded flagless pathologies are adversarial (part a /";
  Tables.note "thesis constructions), not typical of random schedules.";
  !out

let run () =
  Tables.section "EXP-8  Flag-bit ablation";
  let det = deterministic_part () in
  let stats = statistical_part () in
  (det, stats)
