(* The paper's adversarial executions and measurement scenarios, packaged
   as a library so that the benchmark harness (bench/exp*.ml) and the
   shape-lock regression tests (test/test_experiments.ml) drive the exact
   same code.

   Everything here runs in the deterministic simulator; see DESIGN.md for
   the construction of each schedule. *)

module Sim = Lf_dsim.Sim
module Ev = Lf_kernel.Mem_event

module FrL = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module HaL = Lf_baselines.Harris_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module MiL = Lf_baselines.Michael_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module VaL = Lf_baselines.Valois_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module FrS = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module FzS = Lf_skiplist.Fraser_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module StS = Lf_skiplist.St_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
module FrL_dict = Lf_workload.Dict.Of (FrL)
module HaL_dict = Lf_workload.Dict.Of (HaL)
module MiL_dict = Lf_workload.Dict.Of (MiL)
module VaL_dict = Lf_workload.Dict.Of (VaL)

(* ------------------------------------------------------------------ *)
(* EXP-1: amortized-bound measurement on the FR list.                  *)

(* Returns (total essential steps, sum of n(S)+c(S), #ops). *)
let exp1_run ~q ~n0 ~seed =
  let ops = FrL_dict.make (FrL.create ()) in
  let key_range = max 4 (2 * n0) in
  let filled =
    if n0 = 0 then 0
    else Lf_workload.Sim_driver.prefill ~key_range ~count:n0 ~seed:(seed + 1) ops
  in
  let res =
    Lf_workload.Sim_driver.run_mixed ~policy:(Sim.Random seed)
      ~initial_size:filled ~procs:q ~ops_per_proc:60 ~key_range
      ~mix:{ insert_pct = 30; delete_pct = 30 }
      ~seed ops
  in
  (Sim.total_essential res, Sim.bound_sum res, List.length res.ops)

(* ------------------------------------------------------------------ *)
(* EXP-2: the Section 3.1 tail adversary for linked lists.             *)

let fr_list_target () = FrL_dict.make (FrL.create ())
let harris_list_target () = HaL_dict.make (HaL.create ())
let michael_list_target () = MiL_dict.make (MiL.create ())

(* Shared engine: prefill keys 1..n, park q-1 inserters at their pending
   insertion C&S at the tail, run the deleter for [rounds] deletions of the
   last node, releasing every inserter exactly once per round.  Returns
   (avg essential per op, inserter recovery steps per round per inserter,
   total ops). *)
let tail_adversary ~n ~q ~rounds (mk : unit -> Lf_workload.Dict.t) =
  let tgt = mk () in
  ignore
    (Sim.run
       [|
         (fun _ ->
           for i = 1 to n do
             ignore (tgt.insert i)
           done);
       |]);
  let num_inserters = q - 1 in
  let deleter = q - 1 in
  let inserter_body pid =
    Sim.op_begin ~n;
    ignore (tgt.insert (n + 1 + pid));
    Sim.op_end ()
  in
  let deleter_body _pid =
    for r = 1 to rounds do
      Sim.op_begin ~n:(n - r + 1);
      ignore (tgt.delete (n - r + 1));
      Sim.op_end ()
    done
  in
  let bodies =
    Array.init q (fun pid ->
        if pid = deleter then deleter_body else inserter_body)
  in
  let ins_attempts st i =
    (Sim.counters st i).Lf_kernel.Counters.cas_attempts.(Lf_kernel.Counters
                                                         .kind_index
                                                           Ev.Insertion)
  in
  let policy st =
    let dc = Sim.ops_completed st deleter in
    let rec mid i =
      if i >= num_inserters then None
      else if
        (not (Sim.is_finished st i))
        && Sim.pending_kind st i <> Some (Lf_dsim.Sim_effect.Cas Ev.Insertion)
      then Some i
      else mid (i + 1)
    in
    match mid 0 with
    | Some i -> Some i
    | None -> (
        let rec release i =
          if i >= num_inserters then None
          else if (not (Sim.is_finished st i)) && ins_attempts st i < dc then
            Some i
          else release (i + 1)
        in
        match release 0 with
        | Some i -> Some i
        | None -> if Sim.is_finished st deleter then None else Some deleter)
  in
  let res = Sim.run ~policy:(Sim.Custom policy) ~max_steps:200_000_000 bodies in
  let essential = Sim.total_essential res in
  let total_ops = rounds + num_inserters in
  let inserter_steps =
    let sum = ref 0 in
    for i = 0 to num_inserters - 1 do
      sum := !sum + Lf_kernel.Counters.essential_steps res.per_proc.(i)
    done;
    !sum
  in
  ( float_of_int essential /. float_of_int total_ops,
    float_of_int inserter_steps /. float_of_int (rounds * num_inserters),
    total_ops )

(* ------------------------------------------------------------------ *)
(* EXP-3: the Valois Omega(m) execution.                               *)

type omega_target = { ops : Lf_workload.Dict.t; park_kind : Ev.cas_kind }

let valois_omega_target () =
  { ops = VaL_dict.make (VaL.create ()); park_kind = Ev.Physical_delete }

let fr_omega_target () =
  { ops = FrL_dict.make (FrL.create ()); park_kind = Ev.Flagging }

(* Alternating deleters with parked stale cursors plus a producer; returns
   (avg essential steps per delete op, total backlink+aux chain steps). *)
let omega_schedule ~m (mk : unit -> omega_target) =
  let tgt = mk () in
  ignore
    (Sim.run
       [|
         (fun _ ->
           ignore (tgt.ops.insert 1);
           ignore (tgt.ops.insert 2));
       |]);
  let deleter first_victim _pid =
    let v = ref first_victim in
    while !v <= m do
      Sim.op_begin ~n:3;
      ignore (tgt.ops.delete !v);
      Sim.op_end ();
      v := !v + 2
    done
  in
  let producer _pid =
    for k = 3 to m + 2 do
      Sim.op_begin ~n:3;
      ignore (tgt.ops.insert k);
      Sim.op_end ()
    done
  in
  let bodies = [| deleter 1; deleter 2; producer |] in
  let producer_pid = 2 in
  let policy st =
    let r = Sim.ops_completed st 0 + Sim.ops_completed st 1 + 1 in
    if r > m then None
    else begin
      let d = (r - 1) mod 2 in
      let o = 1 - d in
      if
        Sim.ops_completed st producer_pid < r
        && not (Sim.is_finished st producer_pid)
      then Some producer_pid
      else if
        (not (Sim.is_finished st o))
        && Sim.pending_kind st o <> Some (Lf_dsim.Sim_effect.Cas tgt.park_kind)
      then Some o
      else if not (Sim.is_finished st d) then Some d
      else None
    end
  in
  let res = Sim.run ~policy:(Sim.Custom policy) ~max_steps:400_000_000 bodies in
  let delete_ops =
    List.filter (fun (op : Sim.op_record) -> op.op_pid <> producer_pid) res.ops
  in
  let essential =
    List.fold_left (fun a (op : Sim.op_record) -> a + op.essential) 0 delete_ops
  in
  let chain_steps =
    List.fold_left
      (fun a (op : Sim.op_record) -> a + op.op_backlinks + op.op_aux_steps)
      0 delete_ops
  in
  ( float_of_int essential /. float_of_int (max 1 (List.length delete_ops)),
    chain_steps )

(* ------------------------------------------------------------------ *)
(* EXP-9: superfluous-helping ablation on the FR skip list.            *)

let tower_height = 8

(* Rounds of insert-tall / delete / search past it, single process.
   Returns (avg essential per op, dead nodes still linked at the end). *)
let superfluous_mode ~help_superfluous ~m =
  let t = FrS.create_with ~max_level:tower_height ~help_superfluous () in
  let body _pid =
    for r = 1 to m do
      Sim.op_begin ~n:1;
      ignore (FrS.insert_with_height t ~height:tower_height r r);
      Sim.op_end ();
      Sim.op_begin ~n:1;
      ignore (FrS.delete t r);
      Sim.op_end ();
      Sim.op_begin ~n:1;
      ignore (FrS.mem t (m + 5));
      Sim.op_end ()
    done
  in
  let res = Sim.run ~max_steps:400_000_000 [| body |] in
  let residue =
    Sim.quiet (fun () -> Array.fold_left ( + ) 0 (FrS.level_counts t))
  in
  (float_of_int (Sim.total_essential res) /. float_of_int (3 * m), residue)

(* ------------------------------------------------------------------ *)
(* EXP-13/15: the tail adversary for skip lists.                       *)

type sl_target = {
  insert1 : int -> bool; (* height-1 insert *)
  sdelete : int -> bool;
  prefill : int -> unit;
}

(* Perfect-skip-list height profile: height(i) = trailing zeros of i + 1. *)
let tz_height i =
  let rec go i h = if i land 1 = 1 || i = 0 then h else go (i lsr 1) (h + 1) in
  min 16 (go i 1)

let fr_sl_target () =
  let t = FrS.create_with ~max_level:16 () in
  {
    insert1 = (fun k -> FrS.insert_with_height t ~height:1 k k);
    sdelete = (fun k -> FrS.delete t k);
    prefill = (fun k -> ignore (FrS.insert_with_height t ~height:(tz_height k) k k));
  }

let fraser_sl_target () =
  let t = FzS.create_with ~max_level:16 () in
  {
    insert1 = (fun k -> FzS.insert_with_height t ~height:1 k k);
    sdelete = (fun k -> FzS.delete t k);
    prefill = (fun k -> ignore (FzS.insert_with_height t ~height:(tz_height k) k k));
  }

let st_sl_target () =
  let t = StS.create_with ~max_level:16 () in
  {
    insert1 = (fun k -> StS.insert_with_height t ~height:1 k k);
    sdelete = (fun k -> StS.delete t k);
    prefill = (fun k -> ignore (StS.insert_with_height t ~height:(tz_height k) k k));
  }

(* Same schedule as [tail_adversary], over a skip list; returns the
   inserter recovery steps per round per inserter. *)
let sl_tail_adversary ~n ~q ~rounds (mk : unit -> sl_target) =
  let tgt = mk () in
  ignore
    (Sim.run
       [|
         (fun _ ->
           for i = 1 to n do
             tgt.prefill i
           done);
       |]);
  let num_inserters = q - 1 in
  let deleter = q - 1 in
  let inserter_body pid =
    Sim.op_begin ~n;
    ignore (tgt.insert1 (n + 1 + pid));
    Sim.op_end ()
  in
  let deleter_body _pid =
    for r = 1 to rounds do
      Sim.op_begin ~n:(n - r + 1);
      ignore (tgt.sdelete (n - r + 1));
      Sim.op_end ()
    done
  in
  let bodies =
    Array.init q (fun pid ->
        if pid = deleter then deleter_body else inserter_body)
  in
  let ins_attempts st i =
    (Sim.counters st i).Lf_kernel.Counters.cas_attempts.(Lf_kernel.Counters
                                                         .kind_index
                                                           Ev.Insertion)
  in
  let policy st =
    let dc = Sim.ops_completed st deleter in
    let rec mid i =
      if i >= num_inserters then None
      else if
        (not (Sim.is_finished st i))
        && Sim.pending_kind st i <> Some (Lf_dsim.Sim_effect.Cas Ev.Insertion)
      then Some i
      else mid (i + 1)
    in
    match mid 0 with
    | Some i -> Some i
    | None -> (
        let rec release i =
          if i >= num_inserters then None
          else if (not (Sim.is_finished st i)) && ins_attempts st i < dc then
            Some i
          else release (i + 1)
        in
        match release 0 with
        | Some i -> Some i
        | None -> if Sim.is_finished st deleter then None else Some deleter)
  in
  let res = Sim.run ~policy:(Sim.Custom policy) ~max_steps:200_000_000 bodies in
  let inserter_steps =
    let sum = ref 0 in
    for i = 0 to num_inserters - 1 do
      sum := !sum + Lf_kernel.Counters.essential_steps res.per_proc.(i)
    done;
    !sum
  in
  float_of_int inserter_steps /. float_of_int (rounds * num_inserters)

(* ------------------------------------------------------------------ *)
(* Convenience wrappers used by the shape-lock regression tests.       *)

let exp2_recovery ~n =
  let _, fr, _ = tail_adversary ~n ~q:4 ~rounds:(n / 2) fr_list_target in
  let _, ha, _ = tail_adversary ~n ~q:4 ~rounds:(n / 2) harris_list_target in
  (fr, ha)

let exp3_avg ~m =
  let v, _ = omega_schedule ~m valois_omega_target in
  let f, _ = omega_schedule ~m fr_omega_target in
  (v, f)

let exp9_avg ~m =
  let nh, _ = superfluous_mode ~help_superfluous:false ~m in
  let h, _ = superfluous_mode ~help_superfluous:true ~m in
  (nh, h)

let exp13_recovery ~n =
  let fr = sl_tail_adversary ~n ~q:4 ~rounds:(min (n / 2) 64) fr_sl_target in
  let fz = sl_tail_adversary ~n ~q:4 ~rounds:(min (n / 2) 64) fraser_sl_target in
  (fr, fz)
