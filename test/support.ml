(* Shared helpers for the test suite. *)

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Words allocated while [f] runs: minor words plus words allocated
   directly in the major heap (major words that were not promoted from
   the minor heap).  Large blocks skip the minor heap, so
   [Gc.minor_words] alone cannot see them.  Both ends of the window run
   a full major collection.  [quick_stat]'s [major_words] advances only
   when a major slice folds in what the domain allocated since the last
   one, while [promoted_words] advances at every minor collection, so
   without the collections words promoted before [f] (the caller's data)
   could be counted as [f]'s, and words [f] allocated in the major heap
   could be missed. *)
let words_during f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  f ();
  let m1 = Gc.minor_words () in
  Gc.full_major ();
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

(* Fisher-Yates, in place. *)
let shuffle rng keys =
  for i = Array.length keys - 1 downto 1 do
    let j = Lf_kernel.Splitmix.int rng (i + 1) in
    let k = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- k
  done

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
  | `Shuffled -> shuffle (Lf_kernel.Splitmix.create 42) keys);
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

(* Live heap words after a full major collection.  Unlike
   [Obj.reachable_words] on a structure, this sees what other roots keep
   alive: the hint slots of idle domains, and anything a domain holds on
   behalf of a structure that was dropped. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Words a structure leaves live after 128 of 256 keys are prefilled from
   the calling domain and two spawned domains run [ops] operations each
   of a seeded 50/50 insert/delete mix.  The calling domain stays idle
   through the churn, as a server's main domain does. *)
let churn_words (module D : INT_DICT) ~ops =
  let range = 256 in
  let base = live_words () in
  let t = D.create () in
  let keys = Array.init range Fun.id in
  shuffle (Lf_kernel.Splitmix.create 42) keys;
  for i = 0 to (range / 2) - 1 do
    ignore (D.insert t keys.(i) keys.(i))
  done;
  let churn seed () =
    let rng = Lf_kernel.Splitmix.create seed in
    for _ = 1 to ops do
      let k = Lf_kernel.Splitmix.int rng range in
      if Lf_kernel.Splitmix.bool rng then ignore (D.insert t k k)
      else ignore (D.delete t k)
    done
  in
  List.iter Domain.join
    [ Domain.spawn (churn 1); Domain.spawn (churn 2) ];
  let words = live_words () - base in
  ignore (Sys.opaque_identity t);
  words

(* Deleted nodes must become garbage even while a domain that touched
   them sits idle: ten times the churn may leave only a few more words
   live, not the deletion history. *)
let churn_retention_tests (module D : INT_DICT) =
  [
    Alcotest.test_case (D.name ^ " two-domain churn") `Slow (fun () ->
        let small = churn_words (module D) ~ops:20_000 in
        let large = churn_words (module D) ~ops:200_000 in
        if large - small > 16_384 then
          Alcotest.failf
            "%s: %d live words after 2x%d ops, %d after 2x%d ops" D.name
            small 20_000 large 200_000);
  ]

(* Words left live after [count] structures of [keys] keys each are
   created, filled and dropped from the calling domain: nothing a domain
   holds may keep a dropped structure reachable.  Descending inserts
   leave each list's hint on its first node, which reaches all the
   others. *)
let dropped_retention_test (module D : INT_DICT) ~count ~keys =
  Alcotest.test_case
    (Printf.sprintf "%d dropped %s" count D.name)
    `Quick
    (fun () ->
      let base = live_words () in
      for _ = 1 to count do
        let t = D.create () in
        for k = keys - 1 downto 0 do
          ignore (D.insert t k k)
        done
      done;
      let words = live_words () - base in
      if words > 4_096 then
        Alcotest.failf "%s: %d live words after dropping %d structures"
          D.name words count)

(* Assert a history is linearizable, pretty-printing it on failure. *)
let assert_linearizable h =
  match Lf_lin.Checker.check h with
  | Lf_lin.Checker.Linearizable -> ()
  | Lf_lin.Checker.Not_linearizable ->
      Alcotest.failf "history not linearizable:@\n%a" Lf_lin.History.pp h
