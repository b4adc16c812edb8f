(* lib-list-contended: two domains (the box's two cores) call the paper's
   list directly, 50/50 insert/delete over 256 keys.  The server runs
   every request on one thread, so this is the only workload where C&S
   fails and the flag / mark / backlink helping runs; the structure is
   all of the work.

   Correctness is per-key conservation: a key's prefill presence plus its
   successful inserts minus its successful deletes, summed over domains,
   must be its presence after the join, and the list must pass
   [check_invariants]. *)

module Rng = Lf_kernel.Splitmix
module Opgen = Lf_workload.Opgen

let range = 256
let domains = 2
let now_ns = Calib.now_ns

type lane = {
  mutable ops : int;
  mutable words : float;
  mutable norm_ns : float;  (** this domain's window at reference speed *)
  mutable rates : float list;
      (** operations per second at reference speed, one per full slice *)
  lat : Samples.t;  (** ns per call at reference speed, one call in 64 *)
  ins : int array;  (** successful inserts per key *)
  del : int array;  (** successful deletes per key *)
}

type run = {
  window_ns : int;
  lanes : lane array;
  minor_collections : int;
  promoted_words : float;
  conserved : (unit, string) result;
  hint_hits : int;
  hint_lookups : int;
}

module type LIST = sig
  include Lf_workload.Runner.INT_DICT

  val hint_stats : 'a t -> Lf_kernel.Hint.stats option
end

module Make (L : LIST) = struct
  let setup keys =
    let t = L.create () in
    Array.iter (fun k -> ignore (L.insert t k k)) keys;
    t

  let hints t =
    match L.hint_stats t with
    | Some h -> (h.hits, h.hits + h.stale + h.misses)
    | None -> (0, 0)

  (* Both domains start together and run for [seconds], or for [limit]
     operations each when [limit] is positive.  [before] runs after the
     prefill, just before the domains start. *)
  let run ?(limit = 0) ?(before = ignore) ~seed ~seconds ~timed () =
    let master = Rng.create seed in
    let keys = Gen.prefill_keys (Rng.split master) ~range in
    let rngs = Array.init domains (fun _ -> Rng.split master) in
    let t = setup keys in
    let go = Atomic.make false and stop = Atomic.make false in
    let ready = Atomic.make 0 in
    let work rng () =
      let l =
        {
          ops = 0;
          words = 0.;
          norm_ns = 0.;
          rates = [];
          lat = Samples.create ();
          ins = Array.make range 0;
          del = Array.make range 0;
        }
      in
      Atomic.incr ready;
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      let w0 = Gc.minor_words () in
      (* Each domain re-measures the speed of its own core once a slice. *)
      let f = ref (Calib.factor Calib.Cpu) in
      let slice = ref (now_ns ()) and slice_ops = ref 0 in
      while not (Atomic.get stop || (limit > 0 && l.ops >= limit)) do
        if l.ops land 4095 = 0 then begin
          let now = now_ns () in
          if now - !slice >= Calib.slice_ns then begin
            let ns = float_of_int (now - !slice) *. !f in
            l.norm_ns <- l.norm_ns +. ns;
            l.rates <- (float_of_int (l.ops - !slice_ops) /. (ns /. 1e9)) :: l.rates;
            f := Calib.factor Calib.Cpu;
            slice := now_ns ();
            slice_ops := l.ops
          end
        end;
        let k = Rng.int rng range in
        let sample = timed && l.ops land 63 = 0 in
        let t0 = if sample then now_ns () else 0 in
        (match Opgen.draw_kind Opgen.write_heavy rng with
        | Opgen.Insert_k -> if L.insert t k k then l.ins.(k) <- l.ins.(k) + 1
        | Opgen.Delete_k -> if L.delete t k then l.del.(k) <- l.del.(k) + 1
        | Opgen.Find_k -> ignore (L.mem t k));
        if sample then
          Samples.add l.lat (int_of_float (float_of_int (now_ns () - t0) *. !f));
        l.ops <- l.ops + 1
      done;
      l.norm_ns <- l.norm_ns +. (float_of_int (now_ns () - !slice) *. !f);
      l.words <- Gc.minor_words () -. w0;
      l
    in
    let h0, l0 = hints t in
    before ();
    let ds = Array.map (fun rng -> Domain.spawn (work rng)) rngs in
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let g0 = Gc.quick_stat () in
    let t0 = now_ns () in
    Atomic.set go true;
    if limit = 0 then begin
      Unix.sleepf seconds;
      Atomic.set stop true
    end;
    let lanes = Array.map Domain.join ds in
    let window_ns = now_ns () - t0 in
    let g1 = Gc.quick_stat () in
    let h1, l1 = hints t in
    let conserved =
      let initial = Array.make range 0 in
      Array.iter (fun k -> initial.(k) <- 1) keys;
      let bad = ref None in
      for k = range - 1 downto 0 do
        let net =
          Array.fold_left (fun a l -> a + l.ins.(k) - l.del.(k)) initial.(k) lanes
        in
        let now = if L.mem t k then 1 else 0 in
        if net <> now then
          bad := Some (Printf.sprintf "key %d: net %d but present=%d" k net now)
      done;
      match !bad with
      | Some e -> Error e
      | None -> (
          match L.check_invariants t with
          | () -> Ok ()
          | exception Failure e -> Error ("check_invariants: " ^ e))
    in
    {
      window_ns;
      lanes;
      minor_collections = g1.minor_collections - g0.minor_collections;
      promoted_words = g1.promoted_words -. g0.promoted_words;
      conserved;
      hint_hits = h1 - h0;
      hint_lookups = l1 - l0;
    }

  (* Set-up time: create plus prefill, [n] times, each at reference
     speed; the median is reported. *)
  let setup_times ~seed n =
    let keys = Gen.prefill_keys (Rng.split (Rng.create seed)) ~range in
    List.init n (fun _ ->
        let f = Calib.factor Calib.Cpu in
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (setup keys));
        float_of_int (now_ns () - t0) *. f /. 1e9)
end

module Timed = Make (Lf_list.Fr_list.Atomic_int)
module Counted = Make (Lf_list.Fr_list.Counting_int)

let ops r = Array.fold_left (fun a l -> a + l.ops) 0 r.lanes

(* Operations per second at reference speed, summed over the domains:
   each domain's median over its slices.  A slice in which the host stalls
   one vCPU also stalls the other domain at the next stop-the-world minor
   collection, and the per-slice speed loop cannot see it; the median
   keeps such slices from deciding the run. *)
let ops_per_s r = Array.fold_left (fun a l -> a +. Calib.median l.rates) 0. r.lanes

(* Mean time per operation of one domain, at reference speed. *)
let ns_per_op r =
  Array.fold_left (fun a l -> a +. (l.norm_ns /. float_of_int l.ops)) 0. r.lanes
  /. float_of_int (Array.length r.lanes)
let words r = Array.fold_left (fun a l -> a +. l.words) 0. r.lanes

let latency r = Samples.concat (Array.to_list (Array.map (fun l -> l.lat) r.lanes))

(* Structure counts: the same stream on the list over [Counting_mem],
   [limit] operations per domain.  Under contention the counts vary from
   run to run. *)
let count_pass ~seed ~limit =
  let r =
    Counted.run ~limit ~before:Lf_kernel.Counting_mem.reset_all ~seed
      ~seconds:0. ~timed:false ()
  in
  (r, Lf_kernel.Counting_mem.grand_total ())
