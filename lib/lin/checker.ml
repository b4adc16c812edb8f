(* Linearizability checker for dictionary histories (Wing & Gold search with
   memoization on (set of linearized operations, abstract state)).

   The abstract specification is an integer set:
     find(k)   returns (k in S),          S unchanged
     insert(k) returns (k not in S),      S := S + {k}
     delete(k) returns (k in S),          S := S - {k}

   An operation can be linearized next iff no *other* unlinearized operation
   returned before it was invoked.  The linearized set has no size cap: it
   is updated in place as the search descends and backtracks, and only memo
   keys copy it.  The search grows exponentially with how many operations
   overlap, not with the history's length: the stress tests record short
   concurrent bursts. *)

module IntSet = Set.Make (Int)

let apply (s : IntSet.t) (op : History.op) : bool * IntSet.t =
  match op with
  | Find k -> (IntSet.mem k s, s)
  | Insert k -> if IntSet.mem k s then (false, s) else (true, IntSet.add k s)
  | Delete k -> if IntSet.mem k s then (true, IntSet.remove k s) else (false, s)

type verdict = Linearizable | Not_linearizable

let check ?(init = IntSet.empty) (h : History.t) : verdict =
  let entries = Array.of_list h in
  let n = Array.length entries in
  (* The linearized set: byte [i] is ['1'] once entry [i] is linearized. *)
  let done_ = Bytes.make n '0' in
  let is_done i = Bytes.get done_ i = '1' in
  let visited : (string * IntSet.t, unit) Hashtbl.t = Hashtbl.create 256 in
  (* e can come next given the already-linearized ops: no other pending op
     has returned before e's invocation. *)
  let minimal i =
    let e = entries.(i) in
    let rec ok j =
      j >= n || ((j = i || is_done j || entries.(j).ret >= e.inv) && ok (j + 1))
    in
    ok 0
  in
  let rec search linearized state =
    if linearized = n then true
    else
      let key = (Bytes.to_string done_, state) in
      if Hashtbl.mem visited key then false
      else begin
        Hashtbl.add visited key ();
        let rec try_ops i =
          if i >= n then false
          else if is_done i || not (minimal i) then try_ops (i + 1)
          else begin
            let e = entries.(i) in
            let res, state' = apply state e.op in
            let found =
              res = e.ok
              && begin
                   Bytes.set done_ i '1';
                   let r = search (linearized + 1) state' in
                   Bytes.set done_ i '0';
                   r
                 end
            in
            found || try_ops (i + 1)
          end
        in
        try_ops 0
      end
  in
  if search 0 init then Linearizable else Not_linearizable
