(* Deterministic, seeded, replayable fault plans.

   A plan is a list of rules, each naming a target ({!Lf_kernel.Fault_point}),
   an action (spurious C&S failure, mid-protocol crash, or stall) and a
   firing mode (always / k-th match / seeded rate with bursts).  Executing a
   plan ({!start}) builds per-lane decision state - one SplitMix stream per
   lane, derived from the plan seed - so the injected-fault sequence each
   lane observes depends only on (seed, that lane's access sequence): the
   same workload replays the same faults regardless of how the domains
   interleave, and a single-lane trace can be reproduced in the simulator.

   This module only decides and records; actually failing a C&S, raising
   {!Crashed} or burning a stall belongs to [Fault_mem], which consults
   {!on_access} before each shared access of the wrapped memory. *)

module Ev = Lf_kernel.Mem_event
module Fp = Lf_kernel.Fault_point
module Splitmix = Lf_kernel.Splitmix

type action = Fail_cas | Crash | Stall of int

type mode =
  | Always
  | At of int                  (* the k-th matching access, counted per lane *)
  | Rate of float * int        (* probability per match, burst length *)

type rule = {
  point : Fp.t;
  action : action;
  mode : mode;
  lane : int option;           (* [None] targets every lane *)
}

type plan = { seed : int; rules : rule list }

exception Crashed of string

type injected = {
  i_lane : int;
  i_rule : int;                (* index into [plan.rules] *)
  i_action : action;
  i_access : Fp.access;
  i_seq : int;                 (* per-lane access sequence number, from 1 *)
}

(* ------------------------------------------------------------------ *)
(* Plan construction helpers                                           *)

let no_faults = { seed = 0; rules = [] }
let make_plan ?(seed = 0) rules = { seed; rules }

let spurious ?lane ?(p = 1.0) ?(burst = 1) point =
  { point; action = Fail_cas; mode = Rate (p, burst); lane }

let crash_at ?lane k point = { point; action = Crash; mode = At k; lane }

let stall_at ?lane ?(spins = 64) k point =
  { point; action = Stall spins; mode = At k; lane }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type lane_state = {
  rng : Splitmix.t;
  counts : int array;            (* per-rule match counter *)
  burst : int array;             (* per-rule remaining burst length *)
  mutable last_ok : Ev.cas_kind option;
  mutable seq : int;
}

type exec = {
  plan : plan;
  lanes : (int, lane_state) Hashtbl.t;
  mutable trace_rev : injected list;
  lock : Mutex.t;
}

let start plan =
  {
    plan;
    lanes = Hashtbl.create 8;
    trace_rev = [];
    lock = Mutex.create ();
  }

let lane_state e lane =
  match Hashtbl.find_opt e.lanes lane with
  | Some st -> st
  | None ->
      let n = List.length e.plan.rules in
      let st =
        {
          (* Decorrelate lanes without [split] so a lane's stream depends
             only on (seed, lane), not on lane-creation order. *)
          rng = Splitmix.create (e.plan.seed + ((lane + 1) * 1000003));
          counts = Array.make n 0;
          burst = Array.make n 0;
          last_ok = None;
          seq = 0;
        }
      in
      Hashtbl.add e.lanes lane st;
      st

(* The critical sections below are effect-free (hash table + SplitMix
   arithmetic only), so holding the mutex is safe even when the wrapped
   memory is the effects-based simulator: no scheduling point can fire
   while the lock is held. *)
let on_access e ~lane access =
  Mutex.lock e.lock;
  let st = lane_state e lane in
  st.seq <- st.seq + 1;
  let fired = ref [] in
  List.iteri
    (fun i r ->
      let lane_ok = match r.lane with None -> true | Some l -> l = lane in
      if lane_ok && Fp.matches r.point ~last_ok:st.last_ok access then begin
        st.counts.(i) <- st.counts.(i) + 1;
        let fire =
          match r.mode with
          | Always -> true
          | At k -> st.counts.(i) = k
          | Rate (p, burst) ->
              if st.burst.(i) > 0 then begin
                st.burst.(i) <- st.burst.(i) - 1;
                true
              end
              else if Splitmix.float st.rng < p then begin
                st.burst.(i) <- max 0 (burst - 1);
                true
              end
              else false
        in
        if fire then begin
          let inj =
            {
              i_lane = lane;
              i_rule = i;
              i_action = r.action;
              i_access = access;
              i_seq = st.seq;
            }
          in
          e.trace_rev <- inj :: e.trace_rev;
          fired := r.action :: !fired
        end
      end)
    e.plan.rules;
  Mutex.unlock e.lock;
  List.rev !fired

let note_cas_result e ~lane kind ok =
  Mutex.lock e.lock;
  let st = lane_state e lane in
  st.last_ok <- (if ok then Some kind else None);
  Mutex.unlock e.lock

let trace e =
  Mutex.lock e.lock;
  let t = List.rev e.trace_rev in
  Mutex.unlock e.lock;
  t

(* ------------------------------------------------------------------ *)
(* Strings                                                             *)

let action_name = function
  | Fail_cas -> "cas-fail"
  | Crash -> "crash"
  | Stall _ -> "stall"

let injected_to_string i =
  Printf.sprintf "lane=%d seq=%d rule=%d %s@%s" i.i_lane i.i_seq i.i_rule
    (action_name i.i_action)
    (Fp.access_to_string i.i_access)

let rule_to_string r =
  let params =
    (match r.action with
    | Stall n -> [ Printf.sprintf "n=%d" n ]
    | Fail_cas | Crash -> [])
    @ (match r.mode with
      | Always -> []
      | At k -> [ Printf.sprintf "at=%d" k ]
      | Rate (p, burst) ->
          [ Printf.sprintf "p=%g" p; Printf.sprintf "burst=%d" burst ])
    @ match r.lane with None -> [] | Some l -> [ Printf.sprintf "lane=%d" l ]
  in
  String.concat ":" ((action_name r.action :: [ Fp.to_string r.point ]) @ params)

let plan_to_string p =
  String.concat ";"
    (Printf.sprintf "seed=%d" p.seed :: List.map rule_to_string p.rules)

(* Grammar: [spec := item (';' item)*], [item := 'seed=' INT | rule],
   [rule := action ':' point (':' key '=' value)*] with actions
   cas-fail | crash | stall, points from {!Fp.of_string}, and params
   at= (k-th match), p= + burst= (seeded rate), n= (stall spins),
   lane= (restrict to one lane). *)
let plan_of_string s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_param r (k, v) =
    match k with
    | "at" -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> Ok { r with mode = At n }
        | _ -> fail "bad at=%s (want a positive integer)" v)
    | "p" -> (
        match float_of_string_opt v with
        | Some p when p >= 0.0 && p <= 1.0 ->
            let burst = match r.mode with Rate (_, b) -> b | _ -> 1 in
            Ok { r with mode = Rate (p, burst) }
        | _ -> fail "bad p=%s (want a probability in [0,1])" v)
    | "burst" -> (
        match int_of_string_opt v with
        | Some b when b >= 1 ->
            let p = match r.mode with Rate (p, _) -> p | _ -> 1.0 in
            Ok { r with mode = Rate (p, b) }
        | _ -> fail "bad burst=%s (want a positive integer)" v)
    | "n" -> (
        match (int_of_string_opt v, r.action) with
        | Some n, Stall _ when n >= 1 -> Ok { r with action = Stall n }
        | Some _, _ -> fail "n= only applies to stall rules"
        | None, _ -> fail "bad n=%s (want a positive integer)" v)
    | "lane" -> (
        match int_of_string_opt v with
        | Some l when l >= 0 -> Ok { r with lane = Some l }
        | _ -> fail "bad lane=%s (want a non-negative integer)" v)
    | _ -> fail "unknown parameter %s=%s" k v
  in
  let parse_rule item =
    match String.split_on_char ':' item with
    | action :: point :: params -> (
        let act =
          match action with
          | "cas-fail" -> Some Fail_cas
          | "crash" -> Some Crash
          | "stall" -> Some (Stall 64)
          | _ -> None
        in
        match (act, Fp.of_string point) with
        | None, _ ->
            fail "unknown action %S (want cas-fail, crash or stall)" action
        | _, None -> fail "unknown fault point %S" point
        | Some action, Some point ->
            let init = { point; action; mode = Always; lane = None } in
            List.fold_left
              (fun acc p ->
                match acc with
                | Error _ as e -> e
                | Ok r -> (
                    match String.index_opt p '=' with
                    | None -> fail "bad parameter %S (want key=value)" p
                    | Some i ->
                        parse_param r
                          ( String.sub p 0 i,
                            String.sub p (i + 1) (String.length p - i - 1) )))
              (Ok init) params)
    | _ -> fail "bad rule %S (want action:point[:key=value...])" item
  in
  let items =
    List.filter
      (fun it -> not (String.equal it ""))
      (List.map String.trim (String.split_on_char ';' s))
  in
  List.fold_left
    (fun acc item ->
      match acc with
      | Error _ as e -> e
      | Ok p ->
          let seed_pre = "seed=" in
          let spl = String.length seed_pre in
          if
            String.length item > spl
            && String.equal (String.sub item 0 spl) seed_pre
          then
            match
              int_of_string_opt
                (String.sub item spl (String.length item - spl))
            with
            | Some seed -> Ok { p with seed }
            | None -> fail "bad %s" item
          else
            match parse_rule item with
            | Ok r -> Ok { p with rules = p.rules @ [ r ] }
            | Error _ as e -> e)
    (Ok no_faults) items
