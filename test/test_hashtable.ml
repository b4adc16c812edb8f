(* Tests for the lock-free hash table (Michael-style list buckets). *)

module H = Lf_hashtable.Atomic_int
module HS = Lf_hashtable.Make (Lf_hashtable.Int_key) (Lf_dsim.Sim_mem)
module Sim = Lf_dsim.Sim

module _ : Support.INT_DICT = Lf_hashtable.Atomic_int

let oracle = Support.oracle_test (module H)

let test_bucket_count_validation () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Lf_hashtable.create_with: buckets must be a power of two")
    (fun () -> ignore (H.create_with ~buckets:48 ()));
  ignore (H.create_with ~buckets:1 ());
  ignore (H.create_with ~buckets:256 ())

let test_spread_and_order () =
  let t = H.create_with ~buckets:8 () in
  for i = 0 to 999 do
    ignore (H.insert t i (i * 2))
  done;
  Alcotest.(check int) "length" 1000 (H.length t);
  (* to_list is globally sorted even though buckets are hash-ordered. *)
  let l = H.to_list t in
  Alcotest.(check int) "snapshot size" 1000 (List.length l);
  List.iteri (fun i (k, v) -> assert (k = i && v = 2 * i)) l;
  H.check_invariants t

let test_string_keys () =
  let module S = Lf_hashtable.Atomic_string in
  let t = S.create () in
  assert (S.insert t "alpha" 1);
  assert (S.insert t "beta" 2);
  assert (not (S.insert t "alpha" 9));
  Alcotest.(check (option int)) "find" (Some 2) (S.find t "beta");
  assert (S.delete t "alpha");
  Alcotest.(check int) "length" 1 (S.length t)

let test_sim_linearizable () =
  List.iter
    (fun seed ->
      let t = HS.create_with ~buckets:4 () in
      let ops =
        Lf_workload.Sim_driver.
          {
            insert = (fun k -> HS.insert t k k);
            delete = (fun k -> HS.delete t k);
            find = (fun k -> HS.mem t k);
          }
      in
      let h =
        Lf_workload.Sim_driver.run_recorded ~policy:(Sim.Random seed) ~procs:3
          ~ops_per_proc:15 ~key_range:8
          ~mix:{ insert_pct = 40; delete_pct = 40 }
          ~seed ops
      in
      Support.assert_linearizable h)
    [ 81; 82; 83; 84 ]

let test_domain_stress () =
  let t = H.create_with ~buckets:16 () in
  let net = Atomic.make 0 in
  let work did =
    let rng = Lf_kernel.Splitmix.create (did * 53) in
    let local = ref 0 in
    for _ = 1 to 20_000 do
      let k = Lf_kernel.Splitmix.int rng 512 in
      match Lf_kernel.Splitmix.int rng 3 with
      | 0 -> if H.insert t k k then incr local
      | 1 -> if H.delete t k then decr local
      | _ -> ignore (H.find t k)
    done;
    ignore (Atomic.fetch_and_add net !local)
  in
  let ds = List.init 3 (fun i -> Domain.spawn (fun () -> work (i + 1))) in
  work 0;
  List.iter Domain.join ds;
  H.check_invariants t;
  Alcotest.(check int) "conservation" (Atomic.get net) (H.length t)

(* --- Placeholder keys ---

   The buckets are [Fr_list]s, whose sentinels carry [Ordered.S.any]:
   key [0] and [""] must behave like any other key, in a table of 64
   buckets and in one of a single bucket, where the other keys share its
   list. *)
module HStr = Lf_hashtable.Atomic_string

module One_bucket (D : sig
  include Support.BATCHED

  val create_with : ?buckets:int -> ?use_hints:bool -> unit -> 'a t
end) =
struct
  include D

  let create () = D.create_with ~buckets:1 ()
end

let test_placeholder_int () =
  let others = [ -1; 1; min_int; 7; max_int ] in
  Support.batched_placeholder_keys (module H) ~any:0 ~others ();
  Support.batched_placeholder_keys (module One_bucket (H)) ~any:0 ~others ()

let test_placeholder_string () =
  let others = [ "a"; "\000"; "zz" ] in
  Support.batched_placeholder_keys (module HStr) ~any:"" ~others ();
  Support.batched_placeholder_keys (module One_bucket (HStr)) ~any:"" ~others ()

let () =
  Alcotest.run "hashtable"
    (Support.time_limited
       [
         ( "semantics",
           [
             oracle;
             Alcotest.test_case "bucket validation" `Quick
               test_bucket_count_validation;
             Alcotest.test_case "spread and order" `Quick test_spread_and_order;
             Alcotest.test_case "string keys" `Quick test_string_keys;
           ] );
         ( "placeholder keys",
           [
             Alcotest.test_case "int key 0" `Quick test_placeholder_int;
             Alcotest.test_case "string key \"\"" `Quick
               test_placeholder_string;
           ] );
         ( "concurrency",
           [
             Alcotest.test_case "sim linearizable" `Quick test_sim_linearizable;
             Alcotest.test_case "domain stress" `Slow test_domain_stress;
           ] );
         ( "retention",
           Support.churn_retention_tests (module H)
           @ [ Support.dropped_retention_test (module H) ~count:200 ~keys:256 ] );
       ])
