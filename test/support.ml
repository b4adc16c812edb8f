(* Shared helpers for the test suite. *)

let qcheck ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* --- Time limits ---

   A defect that makes a structure's walk loop forever would hang the
   suite, and with it the whole test run.  [time_limited] arms an alarm
   around every case: when it rings, the OCaml handler raises [Failure]
   naming the case at the next poll point of whichever domain runs it, so
   the case fails and the suite moves on.  A case that still runs
   [grace_s] later cannot be stopped that way (a qcheck case catches the
   exception and shrinks its input, looping again; or the exception
   landed in a domain nobody joins), so the process writes a line naming
   the case to the console and exits with code 124. *)
let time_limit_s = 30
let grace_s = 5

(* The console's stderr: alcotest sends what a case prints to a file. *)
let console = Unix.dup Unix.stderr

let with_time_limit name f x =
  let seconds = time_limit_s in
  let rang = ref false in
  let on_alarm _ =
    if !rang then begin
      let line =
        Printf.sprintf "%s: still running %d s past its %d s time limit\n"
          name grace_s seconds
      in
      ignore (Unix.write_substring console line 0 (String.length line));
      exit 124
    end
    else begin
      rang := true;
      ignore (Unix.alarm grace_s);
      failwith (Printf.sprintf "%s: over its %d s time limit" name seconds)
    end
  in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle on_alarm) in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    (fun () -> f x)

let time_limited groups =
  List.map
    (fun (group, cases) ->
      ( group,
        List.map
          (fun (name, speed, f) ->
            (name, speed, with_time_limit (group ^ " " ^ name) f))
          cases ))
    groups

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

(* --- Shipped instances against their functor ---

   A structure's shipped [Atomic_int] is generated from its own [Make] body
   (tools/specialize), not applied.  [same_as_functor] runs one
   single-domain stream of operations on it and on
   [Make (Ordered.Int) (Atomic_mem)], and fails unless the two runs return
   the same.  An operation is a selector below [ops], a key and a batch of
   keys.  Keys come from a pool of a few drawn over the whole int range, so
   operations meet each other's keys, plus [0] (the sentinels' key,
   [Ordered.Int.any]), [min_int] and [max_int]. *)

type result =
  | Bool of bool
  | Elt of int option
  | Binding of (int * int) option
  | Bools of bool list
  | Bindings of (int * int) list

let stream_gen ~ops =
  QCheck2.Gen.(
    let* pool = list_repeat 5 int in
    let pool = Array.of_list (0 :: min_int :: max_int :: pool) in
    let key = map (Array.get pool) (int_bound (Array.length pool - 1)) in
    list_size (int_bound 150)
      (triple (int_bound (ops - 1)) key (list_size (int_bound 6) key)))

let same_as_functor ~ops name shipped reference =
  qcheck ~count:100
    ~print:QCheck2.Print.(list (triple int int (list int)))
    (name ^ " Atomic_int runs as Make (Ordered.Int) (Atomic_mem)")
    (stream_gen ~ops)
    (fun script -> shipped script = reference script)

(* Selectors 0-3 on any dictionary: every result, then the contents. *)
let dict_stream (module D : INT_DICT) script =
  let t = D.create () in
  let results =
    List.mapi
      (fun v (op, k, _) ->
        match op with
        | 0 -> Bool (D.insert t k v)
        | 1 -> Bool (D.delete t k)
        | 2 -> Elt (D.find t k)
        | _ -> Bool (D.mem t k))
      script
  in
  D.check_invariants t;
  (results, D.to_list t)

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

(* --- Placeholder keys of the skip list ---

   [Fr_skiplist] stores keys unboxed, and its sentinels carry
   [Ordered.S.any] as their key.  [any] is also a valid key, so a tower of
   every height on it must behave like any other key's, alone and among
   [others]: a sentinel test that looks at keys, or forgets the heads or
   the tail, fails here. *)
module type SKIPLIST = sig
  type key
  type 'a t

  val create_with : ?max_level:int -> ?help_superfluous:bool -> unit -> 'a t
  val insert_with_height : 'a t -> height:int -> key -> 'a -> bool
  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val delete : 'a t -> key -> bool
  val find_ge : 'a t -> key -> (key * 'a) option
  val min_binding : 'a t -> (key * 'a) option
  val max_binding : 'a t -> (key * 'a) option

  val fold_range :
    'a t -> lo:key -> hi:key -> ('b -> key -> 'a -> 'b) -> 'b -> 'b

  val level_counts : 'a t -> int array
  val check_invariants : 'a t -> unit
end

let placeholder_keys (type k) (module D : SKIPLIST with type key = k)
    ~(any : k) ~(others : k list) () =
  let max_level = 6 in
  let last l = List.nth l (List.length l - 1) in
  for height = 1 to max_level do
    List.iter
      (fun neighbours ->
        let fail what =
          Alcotest.failf "height %d, %d other keys: %s" height
            (List.length neighbours) what
        in
        let expect what ok = if not ok then fail what in
        let t = D.create_with ~max_level () in
        let populations what per_level =
          Array.iteri
            (fun i c ->
              let want = if i < height then per_level else 0 in
              if c <> want then
                fail
                  (Printf.sprintf "%s: level %d holds %d nodes, not %d" what
                     (i + 1) c want))
            (D.level_counts t)
        in
        let absent () = D.find t any = None && not (D.mem t any) in
        expect "absent before insert" (absent ());
        expect "delete of an absent key" (not (D.delete t any));
        expect "find_ge on an empty list" (D.find_ge t any = None);
        List.iteri
          (fun i k ->
            expect "insert another key"
              (D.insert_with_height t ~height k (i + 1)))
          neighbours;
        expect "insert" (D.insert_with_height t ~height any 0);
        expect "duplicate rejected"
          (not (D.insert_with_height t ~height any 9));
        D.check_invariants t;
        populations "after insert" (List.length neighbours + 1);
        let all =
          List.sort compare
            ((any, 0) :: List.mapi (fun i k -> (k, i + 1)) neighbours)
        in
        let lo = fst (List.hd all) and hi = fst (last all) in
        let range lo hi =
          List.rev (D.fold_range t ~lo ~hi (fun acc k v -> (k, v) :: acc) [])
        in
        expect "find" (D.find t any = Some 0 && D.mem t any);
        expect "find_ge" (D.find_ge t any = Some (any, 0));
        expect "find_ge from the smallest key"
          (D.find_ge t lo = Some (List.hd all));
        expect "min_binding" (D.min_binding t = Some (List.hd all));
        expect "max_binding" (D.max_binding t = Some (last all));
        expect "fold_range over every key" (range lo hi = all);
        expect "fold_range over the key alone" (range any any = [ (any, 0) ]);
        expect "delete" (D.delete t any);
        expect "absent after delete" (absent ());
        expect "second delete" (not (D.delete t any));
        D.check_invariants t;
        populations "after delete" (List.length neighbours);
        expect "find_ge after delete"
          (D.find_ge t any
          = List.find_opt (fun (k, _) -> compare k any > 0) all);
        expect "range after delete" (range any any = []);
        expect "reinsert" (D.insert_with_height t ~height any 7);
        expect "find after reinsert" (D.find t any = Some 7);
        D.check_invariants t)
      [ []; others ]
  done

(* --- Placeholder keys of the list ---

   [Fr_list], and the hash table whose buckets are [Fr_list]s, store keys
   unboxed as well, and their sentinels carry [Ordered.S.any].  A live
   [any] must behave like any other key, alone and among [others],
   through the single operations and the three batches: a sentinel test
   that looks at keys fails here. *)
module type BATCHED = Lf_kernel.Dict_intf.BATCHED

let batched_placeholder_keys (type k) (module D : BATCHED with type key = k)
    ~(any : k) ~(others : k list) () =
  List.iter
    (fun neighbours ->
      let fail what =
        Alcotest.failf "%s, %d other keys: %s" D.name (List.length neighbours)
          what
      in
      let expect what ok = if not ok then fail what in
      let check what t =
        try D.check_invariants t
        with Failure msg -> fail (Printf.sprintf "%s: %s" what msg)
      in
      let t = D.create () in
      let absent () = D.find t any = None && not (D.mem t any) in
      let keys = any :: neighbours in
      let all v =
        List.sort compare
          ((any, v) :: List.mapi (fun i k -> (k, i + 1)) neighbours)
      in
      expect "absent before insert" (absent ());
      expect "delete of an absent key" (not (D.delete t any));
      expect "mem_batch of an absent key" (D.mem_batch t [ any ] = [ false ]);
      expect "delete_batch of an absent key"
        (D.delete_batch t [ any ] = [ false ]);
      List.iteri
        (fun i k -> expect "insert another key" (D.insert t k (i + 1)))
        neighbours;
      expect "insert" (D.insert t any 0);
      expect "duplicate rejected" (not (D.insert t any 9));
      check "after insert" t;
      expect "find" (D.find t any = Some 0 && D.mem t any);
      expect "to_list" (D.to_list t = all 0);
      expect "delete" (D.delete t any);
      expect "absent after delete" (absent ());
      expect "second delete" (not (D.delete t any));
      check "after delete" t;
      expect "insert_batch"
        (D.insert_batch t
           ((any, 7) :: (any, 8) :: List.map (fun k -> (k, 9)) neighbours)
        = true :: false :: List.map (fun _ -> false) neighbours);
      check "after insert_batch" t;
      expect "find after insert_batch" (D.find t any = Some 7);
      expect "to_list after insert_batch" (D.to_list t = all 7);
      expect "mem_batch" (D.mem_batch t keys = List.map (fun _ -> true) keys);
      expect "delete_batch"
        (D.delete_batch t (keys @ [ any ])
        = List.map (fun _ -> true) keys @ [ false ]);
      check "after delete_batch" t;
      expect "empty after delete_batch" (D.to_list t = [] && absent ());
      expect "mem_batch after delete_batch"
        (D.mem_batch t keys = List.map (fun _ -> false) keys))
    [ []; others ]
