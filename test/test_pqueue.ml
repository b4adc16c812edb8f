(* Tests for the skip-list priority queue: sequential ordering, FIFO among
   equal priorities (stamped variant), uniqueness of concurrent claims, and
   producer/consumer conservation across domains. *)

module PQ = Lf_pqueue.Pqueue.Atomic_int
module SPQ = Lf_pqueue.Pqueue.Stamped_atomic

let test_sequential_order () =
  let q = PQ.create () in
  List.iter (fun p -> ignore (PQ.push q p (p * 10))) [ 4; 1; 3; 5; 2 ];
  Alcotest.(check int) "length" 5 (PQ.length q);
  Alcotest.(check bool) "peek" true (PQ.peek_min q = Some (1, 10));
  let out = ref [] in
  let rec drain () =
    match PQ.pop_min q with
    | None -> ()
    | Some (p, v) ->
        Alcotest.(check int) "payload" (p * 10) v;
        out := p :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !out);
  Alcotest.(check bool) "empty" true (PQ.is_empty q)

let test_duplicate_priority_rejected_unstamped () =
  let q = PQ.create () in
  Alcotest.(check bool) "first" true (PQ.push q 1 0);
  Alcotest.(check bool) "dup" false (PQ.push q 1 1)

let test_stamped_fifo () =
  let q = SPQ.create () in
  SPQ.push q 5 "a";
  SPQ.push q 5 "b";
  SPQ.push q 1 "c";
  SPQ.push q 5 "d";
  let pops = List.init 4 (fun _ -> SPQ.pop_min q) in
  Alcotest.(check (list (option (pair int string))))
    "min first, FIFO among equals"
    [ Some (1, "c"); Some (5, "a"); Some (5, "b"); Some (5, "d") ]
    pops;
  Alcotest.(check bool) "drained" true (SPQ.is_empty q)

let test_stamped_interleaved () =
  let q = SPQ.create () in
  for i = 1 to 100 do
    SPQ.push q (i mod 10) i
  done;
  let prev = ref (-1) in
  for _ = 1 to 100 do
    match SPQ.pop_min q with
    | None -> Alcotest.fail "premature empty"
    | Some (p, _) ->
        if p < !prev then Alcotest.failf "priority went down: %d after %d" p !prev;
        prev := p
  done;
  Alcotest.(check bool) "empty" true (SPQ.pop_min q = None)

(* The heap baseline must agree with the lock-free queue on ordering. *)
let test_heap_baseline_agrees () =
  let module BH = Lf_baselines.Binary_heap in
  let h = BH.Locked.create () in
  let q = SPQ.create () in
  let rng = Lf_kernel.Splitmix.create 5 in
  for i = 1 to 500 do
    let p = Lf_kernel.Splitmix.int rng 50 in
    BH.Locked.push h p i;
    SPQ.push q p i
  done;
  BH.Locked.check_invariants h;
  for _ = 1 to 500 do
    let hp = match BH.Locked.pop_min h with Some (p, _) -> p | None -> -1 in
    let qp = match SPQ.pop_min q with Some (p, _) -> p | None -> -1 in
    Alcotest.(check int) "same priority order" hp qp
  done;
  Alcotest.(check bool) "both empty" true
    (BH.Locked.is_empty h && SPQ.is_empty q)

let test_heap_growth_and_order () =
  let module BH = Lf_baselines.Binary_heap.Seq in
  let h = BH.create () in
  for i = 1000 downto 1 do
    BH.push h i i
  done;
  BH.check_invariants h;
  Alcotest.(check int) "length" 1000 (BH.length h);
  for i = 1 to 1000 do
    match BH.pop_min h with
    | Some (p, _) -> Alcotest.(check int) "ascending" i p
    | None -> Alcotest.fail "premature empty"
  done

(* The stamped queue's key [(0, 0)] is its [Ordered.S.any], the key the
   skip list's sentinels carry: the first element pushed with priority 0
   has it.  A skip list on that key type must treat it as any other key at
   every tower height, and so must the queue. *)
module PKS = Lf_skiplist.Fr_skiplist.Make (SPQ.Key) (Lf_kernel.Atomic_mem)

let test_placeholder_key_skiplist =
  Support.placeholder_keys (module PKS) ~any:(0, 0)
    ~others:[ (-1, 5); (0, 1); (1, 0) ]

let test_placeholder_key_queue () =
  Alcotest.(check bool) "Key.any" true (SPQ.Key.any = (0, 0));
  let q = SPQ.create () in
  SPQ.push q 0 "first";
  Alcotest.(check (option (pair int string)))
    "pop the (0, 0) element" (Some (0, "first")) (SPQ.pop_min q);
  Alcotest.(check bool) "empty" true (SPQ.is_empty q && SPQ.pop_min q = None)

(* --- Allocation budgets --- *)

(* Words per call on the shipped queue, averaged over 2^15 calls on a
   queue holding the even priorities of [0, 2^16).  A push links a tower
   as a skip-list insert does: a root is 15 words (two cells, the 5-word
   node, its [Some] and the linking C&S's descriptor) and each upper level
   15, with one upper level on average.  A pop claims the leftmost root
   with three descriptors per level (12), with two levels on average, and
   returns [Some (priority, element)] (5 words). *)
let check_per_call name ~bar op =
  let n = 32_768 in
  let q = PQ.create () in
  for i = 0 to n - 1 do
    ignore (PQ.push q (2 * i) i)
  done;
  let words = Support.words_per_call ~n (op q) in
  if words > bar then
    Alcotest.failf "%s allocates %.4f words/call at %d keys (bar: %.0f)" name
      words n bar

let test_push_alloc () =
  check_per_call "new-key push" ~bar:32. (fun q i -> PQ.push q ((2 * i) + 1) i)

let test_pop_min_alloc () =
  check_per_call "pop_min" ~bar:31. (fun q _ -> PQ.pop_min q)

(* Exhaustive bounded-schedule check of pop_min claims: two processes pop
   from a 4-element queue under every schedule with <= 2 preemptions; every
   element must be claimed exactly once and pops never fabricate
   elements. *)
let test_pop_claims_exhaustive () =
  (* Directly on the simulator skip list (delete_min is the pqueue's pop),
     with explicit tower heights: Explore replays require deterministic
     scenarios, and Pqueue.push draws random heights from a global
     stream. *)
  let module Q = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem) in
  let mk () =
    let q = Q.create_with ~max_level:3 () in
    Lf_dsim.Sim.quiet (fun () ->
        List.iter
          (fun p -> ignore (Q.insert_with_height q ~height:((p mod 3) + 1) p (p * 10)))
          [ 1; 2; 3; 4 ]);
    let claims = Array.make 2 [] in
    let body pid =
      for _ = 1 to 2 do
        match Q.delete_min q with
        | Some (p, v) ->
            if v <> p * 10 then failwith "torn payload";
            claims.(pid) <- p :: claims.(pid)
        | None -> ()
      done
    in
    let check () =
      let all = List.sort compare (claims.(0) @ claims.(1)) in
      if all = [ 1; 2; 3; 4 ] then Ok ()
      else
        Error
          (Printf.sprintf "claims [%s]"
             (String.concat ";" (List.map string_of_int all)))
    in
    ([| body; body |], check)
  in
  let res = Lf_dsim.Explore.run ~max_preemptions:2 ~max_schedules:60_000 mk in
  (match res.failures with
  | [] -> ()
  | (prefix, msg) :: _ ->
      Alcotest.failf "pop_min: %s under [%s] (%d schedules)" msg
        (String.concat ";" (List.map string_of_int prefix))
        res.schedules_run);
  Alcotest.(check bool) "explored" true (res.schedules_run > 100)

(* Producers push unique payloads; consumers pop everything; the multiset of
   payloads must be preserved with no duplicates. *)
let test_producer_consumer_domains () =
  let q = SPQ.create () in
  let producers = 2 and items = 5_000 in
  let produced = producers * items in
  let popped = Atomic.make 0 in
  let seen = Array.make produced (Atomic.make 0) in
  Array.iteri (fun i _ -> seen.(i) <- Atomic.make 0) seen;
  let producer pid () =
    let rng = Lf_kernel.Splitmix.create pid in
    for i = 0 to items - 1 do
      let payload = (pid * items) + i in
      SPQ.push q (Lf_kernel.Splitmix.int rng 100) payload
    done
  in
  let consumer () =
    let continue_ = ref true in
    while !continue_ do
      match SPQ.pop_min q with
      | Some (_, payload) ->
          Atomic.incr seen.(payload);
          Atomic.incr popped
      | None -> if Atomic.get popped >= produced then continue_ := false
    done
  in
  let ds =
    List.init producers (fun p -> Domain.spawn (producer p))
    @ List.init 2 (fun _ -> Domain.spawn consumer)
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "all popped" produced (Atomic.get popped);
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "payload %d seen %d times" i (Atomic.get c))
    seen;
  Alcotest.(check bool) "queue empty" true (SPQ.is_empty q)

let () =
  Alcotest.run "pqueue"
    (Support.time_limited
       [
         ( "sequential",
           [
             Alcotest.test_case "order" `Quick test_sequential_order;
             Alcotest.test_case "dup priority" `Quick
               test_duplicate_priority_rejected_unstamped;
             Alcotest.test_case "stamped fifo" `Quick test_stamped_fifo;
             Alcotest.test_case "stamped interleaved" `Quick
               test_stamped_interleaved;
             Alcotest.test_case "heap baseline agrees" `Quick
               test_heap_baseline_agrees;
             Alcotest.test_case "heap growth and order" `Quick
               test_heap_growth_and_order;
           ] );
         ( "placeholder key",
           [
             Alcotest.test_case "skip list on (0, 0) at every height" `Quick
               test_placeholder_key_skiplist;
             Alcotest.test_case "queue pops (0, 0)" `Quick
               test_placeholder_key_queue;
           ] );
         ( "allocation",
           [
             Alcotest.test_case "new-key push" `Quick test_push_alloc;
             Alcotest.test_case "pop_min" `Quick test_pop_min_alloc;
           ] );
         ( "concurrent",
           [
             Alcotest.test_case "pop claims exhaustive" `Slow
               test_pop_claims_exhaustive;
             Alcotest.test_case "producer/consumer" `Slow
               test_producer_consumer_domains;
           ] );
       ])
