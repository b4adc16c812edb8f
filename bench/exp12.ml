(* EXP-12: priority queue built on the skip list (Lotan-Shavit [13] /
   Sundell-Tsigas [14] context) vs the lock-based binary heap.

   Workload: each domain alternates pushes and pop_mins over random
   priorities (the standard 50/50 hold pattern).  Single-core machine:
   numbers compare overhead, not scaling. *)

let run_queue name push pop ~domains ~ops =
  let t0 = Lf_obs.Clock.(now Real) in
  let work did =
    let rng = Lf_kernel.Splitmix.create (did * 71) in
    for i = 1 to ops do
      if i land 1 = 0 then push (Lf_kernel.Splitmix.int rng 1_000_000) i
      else ignore (pop ())
    done
  in
  let ds = List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work (i + 1))) in
  work 0;
  List.iter Domain.join ds;
  let dt = float_of_int (Lf_obs.Clock.(now Real) - t0) /. 1e9 in
  (name, float_of_int (domains * ops) /. dt /. 1000.)

let run () =
  Tables.section "EXP-12  Priority queue: lock-free skip list vs locked heap";
  let widths = [ 14; 4; 12 ] in
  Tables.row widths [ "impl"; "dom"; "kops/s" ];
  List.iter
    (fun domains ->
      let emit_row (name, rate) =
        Bench_json.emit ~exp:"exp12"
          Bench_json.
            [ ("impl", S name); ("domains", I domains); ("kops_per_s", F rate) ];
        Tables.row widths
          [ name; string_of_int domains; Printf.sprintf "%.0f" rate ]
      in
      let q = Lf_pqueue.Pqueue.Stamped_atomic.create () in
      emit_row
        (run_queue "fr-pqueue"
           (fun p v -> Lf_pqueue.Pqueue.Stamped_atomic.push q p v)
           (fun () -> Lf_pqueue.Pqueue.Stamped_atomic.pop_min q)
           ~domains ~ops:30_000);
      let h = Lf_baselines.Binary_heap.Locked.create () in
      emit_row
        (run_queue "locked-heap"
           (fun p v -> Lf_baselines.Binary_heap.Locked.push h p v)
           (fun () -> Lf_baselines.Binary_heap.Locked.pop_min h)
           ~domains ~ops:30_000))
    [ 1; 2; 4 ];
  Tables.note
    "the lock-free queue additionally guarantees that a stalled domain";
  Tables.note "never blocks the others (see examples/priority_scheduler.ml)."
