(* Contention profiler: attributes C&S failures to protocol phase and to
   the key of the operation that suffered them.

   The phase comes straight from the Section 3.4 classification the
   structures already pass to [Mem.S.cas] — a failed [Flagging] C&S is a
   lost TRYFLAG race, [Marking] a lost TRYMARK, [Physical_delete] a lost
   unlink in HELPMARKED, [Insertion] a lost INSERT splice.  The key comes
   from the operation span the harness opened around the call (the memory
   seam itself never sees keys), so "which keys are contended" is answered
   at operation granularity: a failure with no open span (prefill, ad-hoc
   calls) counts toward the phase totals but no key.

   One [t] per domain-local recorder state — recording is an array bump
   plus, per *failed* C&S only, one hashtable update — merged into a
   run-wide ranking at collection time. *)

module Ev = Lf_kernel.Mem_event

let phase_count = 5

let phase_index (k : Ev.cas_kind) =
  match k with
  | Insertion -> 0
  | Flagging -> 1
  | Marking -> 2
  | Physical_delete -> 3
  | Other_cas -> 4

(* The paper's names for the protocol steps (TRYFLAG / TRYMARK /
   HELPMARKED), as the reports print them. *)
let phase_name = function
  | 0 -> "insert"
  | 1 -> "flag"
  | 2 -> "mark"
  | 3 -> "unlink"
  | _ -> "other"

type t = {
  totals : int array;  (* failures per phase, keyed or not *)
  by_key : (int, int array) Hashtbl.t;  (* key -> failures per phase *)
}

let create () = { totals = Array.make phase_count 0; by_key = Hashtbl.create 64 }

let clear t =
  Array.fill t.totals 0 phase_count 0;
  Hashtbl.reset t.by_key

let no_key = min_int

let record t ~key kind =
  let i = phase_index kind in
  t.totals.(i) <- t.totals.(i) + 1;
  if key <> no_key then begin
    let row =
      match Hashtbl.find_opt t.by_key key with
      | Some r -> r
      | None ->
          let r = Array.make phase_count 0 in
          Hashtbl.add t.by_key key r;
          r
    in
    row.(i) <- row.(i) + 1
  end

let total t = Array.fold_left ( + ) 0 t.totals

let merge_into ~into b =
  for i = 0 to phase_count - 1 do
    into.totals.(i) <- into.totals.(i) + b.totals.(i)
  done;
  Hashtbl.iter
    (fun key row ->
      match Hashtbl.find_opt into.by_key key with
      | Some r -> Array.iteri (fun i v -> r.(i) <- r.(i) + v) row
      | None -> Hashtbl.add into.by_key key (Array.copy row))
    b.by_key

type hot_key = {
  hk_key : int;
  hk_fails : int;
  hk_phase : string;  (* the phase contributing most of this key's failures *)
}

type report = {
  r_total : int;  (* all C&S failures observed *)
  r_by_phase : (string * int) list;  (* nonzero phases, most-contended first *)
  r_hot_keys : hot_key list;  (* most-contended keys first, truncated *)
}

let dominant_phase row =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > row.(!best) then best := i) row;
  phase_name !best

let report ?(top = 10) t =
  let by_phase =
    List.filteri (fun _ (_, v) -> v > 0)
      (List.init phase_count (fun i -> (phase_name i, t.totals.(i))))
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  let keys =
    Hashtbl.fold
      (fun key row acc ->
        let fails = Array.fold_left ( + ) 0 row in
        if fails > 0 then
          { hk_key = key; hk_fails = fails; hk_phase = dominant_phase row }
          :: acc
        else acc)
      t.by_key []
    |> List.stable_sort (fun a b ->
           match Int.compare b.hk_fails a.hk_fails with
           | 0 -> Int.compare a.hk_key b.hk_key (* deterministic ties *)
           | c -> c)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  { r_total = total t; r_by_phase = by_phase; r_hot_keys = take top keys }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>C&S failures: %d@," r.r_total;
  List.iter
    (fun (phase, n) ->
      Format.fprintf fmt "  phase %-7s %6d  (%5.1f%%)@," phase n
        (100.0 *. float_of_int n /. float_of_int (max 1 r.r_total)))
    r.r_by_phase;
  (match r.r_hot_keys with
  | [] -> Format.fprintf fmt "  (no keyed failures)"
  | hot ->
      Format.fprintf fmt "  hot keys:@,";
      List.iter
        (fun hk ->
          Format.fprintf fmt "    key %-8d %6d fails  (mostly %s)@," hk.hk_key
            hk.hk_fails hk.hk_phase)
        hot);
  Format.fprintf fmt "@]"
