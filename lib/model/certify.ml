(* Small-scope certification under DPOR: scenario builders mirroring the
   explorer tests (fresh structure + fresh sanitizer per replay), oracles,
   the mutant-kill gate, deterministic rendering.

   Determinism is load-bearing everywhere here: replay-based exploration
   forces recorded choices, so a scenario that draws from a global RNG
   would diverge between replays.  Hence the skip list inserts with
   scripted heights ((k mod 3) + 1) and the priority queue runs with
   [max_level = 1] (a height-1 tower needs no coin flips; the three-step
   pop protocol is exercised in full). *)

module Sim = Lf_dsim.Sim

type op = I of int | D of int | F of int

type scenario = {
  sc_name : string;
  sc_initial : int list;
  sc_scripts : op list list;
}

(* The canonical grid for the one-level structures.  Scope names are the
   stable report keys; scripts behind a name may differ per structure so
   every certification scope is exhaustible (see [skiplist_grid]). *)
let list_grid =
  [
    {
      sc_name = "2x2-conflict";
      sc_initial = [ 1; 3 ];
      sc_scripts = [ [ I 2; D 1 ]; [ D 2; I 1 ] ];
    };
    {
      sc_name = "2x2-hotspot";
      sc_initial = [ 1; 3 ];
      sc_scripts = [ [ I 2; D 2 ]; [ D 2; I 2 ] ];
    };
    {
      sc_name = "2x3-mixed";
      sc_initial = [ 1; 3 ];
      sc_scripts = [ [ I 2; D 1; F 3 ]; [ D 3; I 4; F 2 ] ];
    };
    {
      sc_name = "3x1-threeway";
      sc_initial = [ 1; 3 ];
      sc_scripts = [ [ I 2 ]; [ D 1 ]; [ D 2 ] ];
    };
  ]

(* The skip-list grid moderates direct conflicts on height-2 towers: a
   two-level deletion retried under a symmetric insert/delete of the same
   tower multiplies racing access pairs past exhaustibility (hundreds of
   thousands of traces at 2x2 already).  These scripts still cover every
   protocol path - tower deletion (keys 1, 3, 5 have height 2) racing
   concurrent traffic, duplicate-insert races, searches through towers
   being unlinked - with one direct conflict pair per scope. *)
let skiplist_grid =
  [
    {
      sc_name = "2x2-conflict";
      sc_initial = [ 1; 3 ];
      sc_scripts = [ [ I 2; D 1 ]; [ I 4; F 2 ] ];
    };
    {
      sc_name = "2x2-hotspot";
      sc_initial = [ 1; 3 ];
      sc_scripts = [ [ I 2; D 2 ]; [ D 2; I 2 ] ];
    };
    {
      sc_name = "2x3-mixed";
      sc_initial = [ 1; 3; 5 ];
      sc_scripts = [ [ I 2; F 1; D 2 ]; [ D 5; I 4; F 2 ] ];
    };
    {
      sc_name = "3x1-threeway";
      sc_initial = [ 1; 3 ];
      sc_scripts = [ [ I 2 ]; [ D 3 ]; [ F 2 ] ];
    };
  ]

(* For the priority queue every [D] is a pop of the shared minimum, so
   three processes that mostly pop explode the trace count (the list
   3x1 scripts exceed 290k traces).  Two pushes racing one pop keeps the
   three-way interleaving while staying well under a thousand traces. *)
let pqueue_grid =
  List.map
    (fun sc ->
      if sc.sc_name = "3x1-threeway" then
        { sc with sc_scripts = [ [ I 2 ]; [ I 4 ]; [ D 1 ] ] }
      else sc)
    list_grid

let scenarios ?(structure = "fr-list") ~quick () =
  let grid =
    match structure with
    | "fr-skiplist" -> skiplist_grid
    | "pqueue" -> pqueue_grid
    | _ -> list_grid
  in
  if quick then List.filter (fun s -> s.sc_name <> "3x1-threeway") grid
  else grid

let structures =
  [
    "fr-list";
    "fr-skiplist";
    "lf-hashtable";
    "pqueue";
    "harris-list";
    "valois-list";
  ]

let mutations =
  [ "skip-flag"; "double-mark"; "unlink-unflagged"; "backlink-right"; "no-help" ]

(* ------------------------------------------------------------------ *)
(* Dictionary scenario builders. *)

let fr_list_dict ?mutation () : Lf_workload.Dict.t =
  let module CM = Lf_check.Check_mem.Make (Lf_dsim.Sim_mem) in
  let module L = Lf_list.Fr_list.Make (Lf_kernel.Ordered.Int) (CM) in
  let t =
    match mutation with
    | None -> L.create_with ~use_flags:true ()
    | Some m ->
        let mu =
          match m with
          | "skip-flag" -> L.Skip_flag
          | "double-mark" -> L.Double_mark
          | "unlink-unflagged" -> L.Unlink_unflagged
          | "backlink-right" -> L.Backlink_right
          | "no-help" -> L.No_help
          | other -> invalid_arg ("Certify: unknown mutation " ^ other)
        in
        L.create_with ~mutation:mu ~use_flags:true ()
  in
  let module T = Lf_workload.Dict.Of (L) in
  let d = T.make t in
  {
    d with
    check =
      (fun () ->
        d.check ();
        match L.Debug.check_now t with Ok () -> () | Error m -> failwith m);
  }

let fr_skiplist_dict () : Lf_workload.Dict.t =
  let module CM = Lf_check.Check_mem.Make (Lf_dsim.Sim_mem) in
  let module L = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (CM) in
  let module T = Lf_workload.Dict.Of (L) in
  (* Two levels: enough for the full tower protocol (root deletion plus
     upper-level unlink) while keeping the trace space exhaustible - each
     extra level multiplies the racing-access pairs. *)
  let t = L.create_with ~max_level:2 () in
  {
    (T.make t) with
    insert = (fun k -> L.insert_with_height t ~height:((k mod 2) + 1) k k);
  }

let hashtable_dict () =
  let module CM = Lf_check.Check_mem.Make (Lf_dsim.Sim_mem) in
  let module H = Lf_hashtable.Make (Lf_hashtable.Int_key) (CM) in
  let module T = Lf_workload.Dict.Of (H) in
  (* Two buckets: adjacent keys collide, so the scripts still conflict. *)
  T.make (H.create_with ~buckets:2 ())

let harris_dict () =
  let module L =
    Lf_baselines.Harris_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
  in
  let module T = Lf_workload.Dict.Of (L) in
  T.make (L.create ())

let valois_dict () =
  let module L =
    Lf_baselines.Valois_list.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)
  in
  let module T = Lf_workload.Dict.Of (L) in
  T.make (L.create ())

let history_op = function
  | I k -> Lf_lin.History.Insert k
  | D k -> Lf_lin.History.Delete k
  | F k -> Lf_lin.History.Find k

(* Dictionary oracle: structural invariants (and, for the checked
   structures, whatever the sanitizer raised mid-run), then Wing & Gold
   linearizability of the recorded history. *)
let dict_mk mk_dict sc () =
  let d : Lf_workload.Dict.t = mk_dict () in
  Sim.quiet (fun () -> List.iter (fun k -> ignore (d.insert k)) sc.sc_initial);
  let rec_ = Lf_lin.Recorder.create () in
  let body pid =
    List.iter
      (fun o ->
        let op = history_op o in
        Lf_lin.Recorder.record rec_ ~pid op (fun () ->
            Lf_workload.Dict.apply d op))
      (List.nth sc.sc_scripts pid)
  in
  let check () =
    match Sim.quiet d.check with
    | exception Failure msg -> Error msg
    | () ->
        Lf_lin.Recorder.verdict
          ~init:(Lf_lin.Checker.IntSet.of_list sc.sc_initial)
          rec_
  in
  (Array.make (List.length sc.sc_scripts) body, check)

(* Priority-queue scenario: [I k] pushes, [D _] pops the minimum, [F _]
   peeks.  Oracle is conservation: every successfully pushed priority is
   popped at most once, and pops plus the quiescent remainder account for
   exactly the pushes. *)
let pqueue_mk sc () =
  let module CM = Lf_check.Check_mem.Make (Lf_dsim.Sim_mem) in
  let module Q = Lf_pqueue.Pqueue.Make (Lf_kernel.Ordered.Int) (CM) in
  let t = Q.create ~max_level:1 () in
  let pushed = ref [] in
  let popped = ref [] in
  Sim.quiet (fun () ->
      List.iter
        (fun k -> if Q.push t k k then pushed := k :: !pushed)
        sc.sc_initial);
  let body pid =
    List.iter
      (fun o ->
        match o with
        | I k -> if Q.push t k k then pushed := k :: !pushed
        | D _ -> (
            match Q.pop_min t with
            | Some (k, _) -> popped := k :: !popped
            | None -> ())
        | F _ -> ignore (Q.peek_min t : (int * int) option))
      (List.nth sc.sc_scripts pid)
  in
  let check () =
    let rec drain acc =
      match Q.pop_min t with Some (k, _) -> drain (k :: acc) | None -> acc
    in
    let remaining = Sim.quiet (fun () -> drain []) in
    (* Multiset conservation: a popped priority may legitimately reappear
       if re-pushed, but every successful push is claimed by exactly one
       pop or still queued at quiescence. *)
    let sorted l = List.sort compare l in
    let accounted = sorted (!popped @ remaining) in
    if accounted <> sorted !pushed then
      Error
        (Printf.sprintf "conservation: pushed {%s}, accounted {%s}"
           (String.concat "," (List.map string_of_int (sorted !pushed)))
           (String.concat "," (List.map string_of_int accounted)))
    else Ok ()
  in
  (Array.make (List.length sc.sc_scripts) body, check)

let mk ~structure ?mutation sc =
  (match mutation with
  | Some _ when structure <> "fr-list" ->
      invalid_arg "Certify: mutations are seeded in fr-list only"
  | _ -> ());
  match structure with
  | "fr-list" -> dict_mk (fr_list_dict ?mutation) sc
  | "fr-skiplist" -> dict_mk fr_skiplist_dict sc
  | "lf-hashtable" -> dict_mk hashtable_dict sc
  | "harris-list" -> dict_mk harris_dict sc
  | "valois-list" -> dict_mk valois_dict sc
  | "pqueue" -> pqueue_mk sc
  | other -> invalid_arg ("Certify: unknown structure " ^ other)

(* ------------------------------------------------------------------ *)
(* Certification. *)

type certificate = {
  ct_structure : string;
  ct_scenario : string;
  ct_procs : int;
  ct_ops : int;
  ct_outcome : Dpor.outcome;
}

let replays (o : Dpor.outcome) = o.schedules_run + o.sleep_set_prunes

let certify ?(max_schedules = 200_000) ?(max_steps = 200_000) ~structure sc =
  let outcome = Dpor.run ~max_schedules ~max_steps (mk ~structure sc) in
  {
    ct_structure = structure;
    ct_scenario = sc.sc_name;
    ct_procs = List.length sc.sc_scripts;
    ct_ops = List.fold_left (fun n s -> n + List.length s) 0 sc.sc_scripts;
    ct_outcome = outcome;
  }

let certify_all ?max_schedules ~quick ~structures:sts () =
  List.concat_map
    (fun structure ->
      List.map
        (fun sc -> certify ?max_schedules ~structure sc)
        (scenarios ~structure ~quick ()))
    sts

(* ------------------------------------------------------------------ *)
(* Mutant-kill gate.  The scope ladder is climbed smallest first; a
   mutant's kill is minimal when every smaller scope was exhausted without
   a failure.  The step budget is small so the No_help livelock (an
   operation spinning behind a parked flag holder) surfaces as a
   step-budget failure within the killing schedule. *)

let ladder =
  [
    ("1p-delete", { sc_name = "1p-delete"; sc_initial = [ 1; 2 ]; sc_scripts = [ [ D 1 ] ] });
    ( "2p-deletes",
      {
        sc_name = "2p-deletes";
        sc_initial = [ 1; 2; 3 ];
        sc_scripts = [ [ D 1 ]; [ D 2 ] ];
      } );
  ]

type kill = {
  k_mutation : string;
  k_survived : (string * int) list;
  k_killed_at : (string * int * string) option;
}

let first_line s = match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

let kill_matrix () =
  List.map
    (fun mutation ->
      let rec climb survived = function
        | [] -> { k_mutation = mutation; k_survived = List.rev survived; k_killed_at = None }
        | (scope, sc) :: rest -> (
            let outcome =
              Dpor.run ~max_steps:4_000 ~max_failures:1
                (mk ~structure:"fr-list" ~mutation sc)
            in
            match outcome.Dpor.failures with
            | (_, msg) :: _ ->
                {
                  k_mutation = mutation;
                  k_survived = List.rev survived;
                  k_killed_at = Some (scope, replays outcome, first_line msg);
                }
            | [] -> climb ((scope, replays outcome) :: survived) rest)
      in
      climb [] ladder)
    mutations

(* ------------------------------------------------------------------ *)
(* Rendering.  Everything printed is a pure function of the scenarios, so
   two runs of [lfdict model] are byte-identical (CI diffs them). *)

let json_escape = Lf_obs.Chrome_trace.escape

let certificates_ok cts =
  List.for_all
    (fun c -> c.ct_outcome.Dpor.failures = [] && not c.ct_outcome.Dpor.truncated)
    cts

let kills_ok ks = List.for_all (fun k -> k.k_killed_at <> None) ks

let render_certificates ~json cts =
  let b = Buffer.create 1024 in
  if json then begin
    Buffer.add_string b "[\n";
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string b ",\n";
        let o = c.ct_outcome in
        Buffer.add_string b
          (Printf.sprintf
             "  {\"structure\": \"%s\", \"scenario\": \"%s\", \"procs\": %d, \
              \"ops\": %d, \"schedules\": %d, \"sleep_prunes\": %d, \
              \"max_depth\": %d, \"exhausted\": %b, \"failures\": %d}"
             (json_escape c.ct_structure)
             (json_escape c.ct_scenario) c.ct_procs c.ct_ops o.Dpor.schedules_run
             o.Dpor.sleep_set_prunes o.Dpor.max_depth
             (not o.Dpor.truncated)
             (List.length o.Dpor.failures)))
      cts;
    Buffer.add_string b "\n]\n"
  end
  else begin
    Buffer.add_string b "model check (DPOR):\n";
    List.iter
      (fun c ->
        let o = c.ct_outcome in
        Buffer.add_string b
          (Printf.sprintf
             "  %-13s %-13s %dp/%dops: %s, %d schedules + %d sleep-set \
              prunes, depth <= %d, %d failures\n"
             c.ct_structure c.ct_scenario c.ct_procs c.ct_ops
             (if o.Dpor.truncated then "TRUNCATED" else "exhausted")
             o.Dpor.schedules_run o.Dpor.sleep_set_prunes o.Dpor.max_depth
             (List.length o.Dpor.failures));
        List.iter
          (fun (trace, msg) ->
            Buffer.add_string b
              (Printf.sprintf "    FAIL under schedule [%s]: %s\n"
                 (String.concat ";" (List.map string_of_int trace))
                 (first_line msg)))
          o.Dpor.failures)
      cts;
    Buffer.add_string b
      (if certificates_ok cts then "verdict: PASS (all scopes exhausted, no failures)\n"
       else "verdict: FAIL\n")
  end;
  Buffer.contents b

let render_kills ~json ks =
  let b = Buffer.create 1024 in
  if json then begin
    Buffer.add_string b "[\n";
    List.iteri
      (fun i k ->
        if i > 0 then Buffer.add_string b ",\n";
        let survived =
          String.concat ", "
            (List.map
               (fun (s, n) -> Printf.sprintf "{\"scope\": \"%s\", \"replays\": %d}" (json_escape s) n)
               k.k_survived)
        in
        let killed =
          match k.k_killed_at with
          | None -> "null"
          | Some (scope, n, msg) ->
              Printf.sprintf
                "{\"scope\": \"%s\", \"replays\": %d, \"message\": \"%s\"}"
                (json_escape scope) n (json_escape msg)
        in
        Buffer.add_string b
          (Printf.sprintf
             "  {\"mutation\": \"%s\", \"survived\": [%s], \"killed\": %s}"
             (json_escape k.k_mutation) survived killed))
      ks;
    Buffer.add_string b "\n]\n"
  end
  else begin
    Buffer.add_string b "mutant kill matrix (fr-list):\n";
    List.iter
      (fun k ->
        match k.k_killed_at with
        | Some (scope, n, msg) ->
            Buffer.add_string b
              (Printf.sprintf "  %-17s killed at %s (%d replays): %s\n"
                 k.k_mutation scope n msg);
            List.iter
              (fun (s, m) ->
                Buffer.add_string b
                  (Printf.sprintf "    survived %s (%d replays, exhausted)\n" s
                     m))
              k.k_survived
        | None ->
            Buffer.add_string b
              (Printf.sprintf "  %-17s NOT KILLED\n" k.k_mutation))
      ks;
    Buffer.add_string b
      (if kills_ok ks then "verdict: PASS (all mutants killed)\n"
       else "verdict: FAIL\n")
  end;
  Buffer.contents b
