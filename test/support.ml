(* Shared helpers for the test suite. *)

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Words allocated while [f] runs: minor words plus words allocated
   directly in the major heap (major words that were not promoted from
   the minor heap).  Large blocks skip the minor heap, so
   [Gc.minor_words] alone cannot see them.  The minor heap is emptied
   first: otherwise promoting what the caller allocated before [f] would
   be subtracted from [f]'s count. *)
let words_during f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  f ();
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  m1 -. m0
  +. (s1.Gc.major_words -. s0.Gc.major_words)
  -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)

(* A scripted sequence of dictionary operations, the common random input of
   the oracle tests: (op tag, key) pairs over a small key space. *)
let ops_gen ~key_range ~len =
  QCheck2.Gen.(
    list_size (int_bound len)
      (pair (int_bound 2) (int_bound (key_range - 1))))

(* Run a (op, key) script against both an implementation (via closures) and
   a Hashtbl oracle; fail on the first divergence.  Returns the final oracle
   contents, sorted. *)
let run_against_oracle script ~insert ~delete ~find =
  let oracle = Hashtbl.create 64 in
  List.iteri
    (fun i (tag, k) ->
      match tag with
      | 0 ->
          let expected = not (Hashtbl.mem oracle k) in
          let got = insert k k in
          if got <> expected then
            Alcotest.failf "op %d: insert %d returned %b (oracle %b)" i k got
              expected;
          if got then Hashtbl.replace oracle k k
      | 1 ->
          let expected = Hashtbl.mem oracle k in
          let got = delete k in
          if got <> expected then
            Alcotest.failf "op %d: delete %d returned %b (oracle %b)" i k got
              expected;
          Hashtbl.remove oracle k
      | _ ->
          let expected = Hashtbl.find_opt oracle k in
          let got = find k in
          if got <> expected then
            Alcotest.failf "op %d: find %d disagreed with oracle" i k)
    script;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle [])

(* All (op,key) scripts as a qcheck generator-based oracle test for a DICT
   implementation. *)
module type INT_DICT = Lf_kernel.Dict_intf.S with type key = int

let oracle_test ?count ?(key_range = 16) ?(len = 120) (module D : INT_DICT) =
  qcheck ?count
    (Printf.sprintf "%s agrees with oracle" D.name)
    (ops_gen ~key_range ~len)
    (fun script ->
      let t = D.create () in
      let expected =
        run_against_oracle script
          ~insert:(fun k v -> D.insert t k v)
          ~delete:(fun k -> D.delete t k)
          ~find:(fun k -> D.find t k)
      in
      D.check_invariants t;
      D.to_list t = expected && D.length t = List.length expected)

(* Words still reachable from a dictionary after inserting keys [0, n)
   and deleting them all again in [order]: what the emptied structure
   holds on to. *)
let emptied_words (module D : INT_DICT) ~order n =
  let t = D.create () in
  for k = 0 to n - 1 do
    ignore (D.insert t k k)
  done;
  let keys = Array.init n Fun.id in
  (match order with
  | `Ascending -> ()
  | `Descending -> Array.iteri (fun i _ -> keys.(i) <- n - 1 - i) keys
  | `Shuffled ->
      let rng = Lf_kernel.Splitmix.create 42 in
      for i = n - 1 downto 1 do
        let j = Lf_kernel.Splitmix.int rng (i + 1) in
        let k = keys.(i) in
        keys.(i) <- keys.(j);
        keys.(j) <- k
      done);
  Array.iter (fun k -> ignore (D.delete t k)) keys;
  Alcotest.(check int) "emptied" 0 (D.length t);
  Obj.reachable_words (Obj.repr t)

(* Deleted nodes must become garbage once unlinked: nothing reachable from
   the structure may keep pointing at them, so an emptied structure holds
   the same number of words whether it held 100 keys or 1000. *)
let retention_tests (module D : INT_DICT) =
  List.map
    (fun (name, order) ->
      Alcotest.test_case name `Quick (fun () ->
          let small = emptied_words (module D) ~order 100 in
          let large = emptied_words (module D) ~order 1000 in
          Alcotest.(check int)
            (Printf.sprintf "words reachable from an emptied %s" D.name)
            small large))
    [
      ("emptied ascending", `Ascending);
      ("emptied descending", `Descending);
      ("emptied shuffled", `Shuffled);
    ]

(* Assert a history is linearizable, pretty-printing it on failure. *)
let assert_linearizable h =
  match Lf_lin.Checker.check h with
  | Lf_lin.Checker.Linearizable -> ()
  | Lf_lin.Checker.Not_linearizable ->
      Alcotest.failf "history not linearizable:@\n%a" Lf_lin.History.pp h
