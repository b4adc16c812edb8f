(* Tests of the linearizability checker itself: it must accept legal
   concurrent histories (including those requiring reordering against
   invocation order) and reject the classic violations. *)

open Lf_lin

let e pid op ok inv ret = { History.pid; op; ok; inv; ret }

let check h = Checker.check h
let lin = Alcotest.testable (Fmt.of_to_string (function
    | Checker.Linearizable -> "Linearizable"
    | Checker.Not_linearizable -> "Not_linearizable"))
    ( = )

let test_empty () = Alcotest.check lin "empty" Checker.Linearizable (check [])

let test_sequential_valid () =
  let h =
    [
      e 0 (Insert 1) true 0 1;
      e 0 (Find 1) true 2 3;
      e 0 (Delete 1) true 4 5;
      e 0 (Find 1) false 6 7;
      e 0 (Delete 1) false 8 9;
      e 0 (Insert 1) true 10 11;
    ]
  in
  Alcotest.check lin "sequential" Checker.Linearizable (check h)

let test_requires_reordering () =
  (* find(1)=true completes before insert(1) returns, but they overlap:
     legal by linearizing the insert first. *)
  let h = [ e 0 (Insert 1) true 0 5; e 1 (Find 1) true 1 2 ] in
  Alcotest.check lin "overlap reorder" Checker.Linearizable (check h)

let test_rejects_find_of_never_inserted () =
  let h = [ e 0 (Find 7) true 0 1 ] in
  Alcotest.check lin "phantom find" Checker.Not_linearizable (check h)

let test_rejects_precedence_violation () =
  (* insert(1) fully precedes find(1)=false: illegal. *)
  let h = [ e 0 (Insert 1) true 0 1; e 1 (Find 1) false 2 3 ] in
  Alcotest.check lin "stale find" Checker.Not_linearizable (check h)

let test_rejects_double_insert () =
  let h = [ e 0 (Insert 1) true 0 1; e 1 (Insert 1) true 2 3 ] in
  Alcotest.check lin "double insert" Checker.Not_linearizable (check h)

let test_rejects_double_delete () =
  (* Two successful deletes racing over one insert. *)
  let h =
    [
      e 0 (Insert 1) true 0 1;
      e 1 (Delete 1) true 2 5;
      e 2 (Delete 1) true 3 4;
    ]
  in
  Alcotest.check lin "double delete" Checker.Not_linearizable (check h)

let test_accepts_racing_deletes_one_winner () =
  let h =
    [
      e 0 (Insert 1) true 0 1;
      e 1 (Delete 1) true 2 5;
      e 2 (Delete 1) false 3 4;
    ]
  in
  Alcotest.check lin "one winner" Checker.Linearizable (check h)

let test_rejects_lost_insert () =
  (* insert succeeded and nothing deleted the key, yet a later find misses
     it. *)
  let h =
    [
      e 0 (Insert 3) true 0 1;
      e 1 (Find 3) true 2 3;
      e 1 (Find 3) false 4 5;
    ]
  in
  Alcotest.check lin "lost insert" Checker.Not_linearizable (check h)

let test_concurrent_soup_valid () =
  (* Three processes over two keys, all overlapping; constructed from an
     actual interleaving so it must be accepted. *)
  let h =
    [
      e 0 (Insert 1) true 0 7;
      e 1 (Insert 2) true 1 6;
      e 2 (Find 1) false 2 3;
      (* linearized before insert 1 *)
      e 2 (Find 2) true 4 5;
      (* insert 2 linearized within [1,6] before this *)
      e 0 (Delete 2) true 8 9;
      e 1 (Find 2) false 10 11;
    ]
  in
  Alcotest.check lin "soup" Checker.Linearizable (check h)

let test_init_state () =
  let h = [ e 0 (Find 5) true 0 1 ] in
  Alcotest.check lin "with init" Checker.Linearizable
    (Checker.check ~init:(Checker.IntSet.singleton 5) h)

(* No length cap: a 200-entry sequential history over 8 keys linearizes,
   and flipping the result of its last find does not. *)
let test_long_history () =
  let n = 200 in
  let present = Array.make 8 false in
  let h =
    List.init n (fun i ->
        let k = i * 5 mod 8 in
        let op, ok =
          match i mod 3 with
          | 0 -> (History.Insert k, not present.(k))
          | 1 -> (History.Find k, present.(k))
          | _ -> (History.Delete k, present.(k))
        in
        (match op with
        | Insert _ -> present.(k) <- true
        | Delete _ -> present.(k) <- false
        | Find _ -> ());
        e 0 op ok (2 * i) ((2 * i) + 1))
  in
  Alcotest.check lin "200 entries" Checker.Linearizable (check h);
  let last_find =
    List.fold_left
      (fun acc (x : History.entry) ->
        match x.op with Find _ -> Some x.inv | _ -> acc)
      None h
  in
  let flipped =
    List.map
      (fun (x : History.entry) ->
        if Some x.inv = last_find then { x with ok = not x.ok } else x)
      h
  in
  Alcotest.check lin "one find flipped" Checker.Not_linearizable (check flipped)

(* Property: any correctly-applied sequential history is linearizable, and
   flipping the result of one find in it is not. *)
let sequential_prop =
  Support.qcheck ~count:100 "sequential histories linearizable"
    (Support.ops_gen ~key_range:8 ~len:40)
    (fun script ->
      let state = Hashtbl.create 16 in
      let t = ref 0 in
      let entries =
        List.map
          (fun (tag, k) ->
            let inv = !t in
            incr t;
            let ret = !t in
            incr t;
            match tag with
            | 0 ->
                let ok = not (Hashtbl.mem state k) in
                if ok then Hashtbl.replace state k ();
                e 0 (Insert k) ok inv ret
            | 1 ->
                let ok = Hashtbl.mem state k in
                Hashtbl.remove state k;
                e 0 (Delete k) ok inv ret
            | _ -> e 0 (Find k) (Hashtbl.mem state k) inv ret)
          script
      in
      let ok = check entries = Checker.Linearizable in
      (* Flip the last find, if any: must become non-linearizable. *)
      let rec flip_last acc = function
        | [] -> None
        | ({ History.op = Find _; _ } as x) :: tl ->
            Some (List.rev_append tl ({ x with ok = not x.ok } :: acc))
        | x :: tl -> flip_last (x :: acc) tl
      in
      let flipped_rejected =
        match flip_last [] (List.rev entries) with
        | None -> true
        | Some h' -> check h' = Checker.Not_linearizable
      in
      ok && flipped_rejected)

let () =
  Alcotest.run "lin"
    [
      ( "checker",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "sequential valid" `Quick test_sequential_valid;
          Alcotest.test_case "requires reordering" `Quick
            test_requires_reordering;
          Alcotest.test_case "phantom find" `Quick
            test_rejects_find_of_never_inserted;
          Alcotest.test_case "precedence violation" `Quick
            test_rejects_precedence_violation;
          Alcotest.test_case "double insert" `Quick test_rejects_double_insert;
          Alcotest.test_case "double delete" `Quick test_rejects_double_delete;
          Alcotest.test_case "racing deletes one winner" `Quick
            test_accepts_racing_deletes_one_winner;
          Alcotest.test_case "lost insert" `Quick test_rejects_lost_insert;
          Alcotest.test_case "concurrent soup" `Quick
            test_concurrent_soup_valid;
          Alcotest.test_case "init state" `Quick test_init_state;
          Alcotest.test_case "200-entry history" `Quick test_long_history;
          sequential_prop;
        ] );
    ]
