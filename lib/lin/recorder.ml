(* The history recorder every harness shares: a monotone counter plus an
   accumulator, safe for use from several domains (both are atomic).  The
   counter is not a shared access of the structure under test, so in the
   simulator a tick is never a scheduling point. *)

type t = { clock : int Atomic.t; all : History.entry list Atomic.t }

let create () = { clock = Atomic.make 0; all = Atomic.make [] }
let tick r = Atomic.fetch_and_add r.clock 1

let add r entries =
  let rec go () =
    let old = Atomic.get r.all in
    if not (Atomic.compare_and_set r.all old (entries @ old)) then go ()
  in
  go ()

(* Tick, run the call, tick, add the entry.  A call that raises never
   returned: its entry stays pending ([ret = max_int], [ok] a placeholder)
   and the exception goes on to the caller. *)
let record r ~pid op call =
  let inv = tick r in
  match call () with
  | ok -> add r [ { History.pid; op; ok; inv; ret = tick r } ]
  | exception e ->
      add r [ { History.pid; op; ok = true; inv; ret = max_int } ];
      raise e

let history r : History.t =
  List.sort (fun a b -> compare a.History.inv b.History.inv) (Atomic.get r.all)

let verdict ?init r =
  match Checker.check ?init (history r) with
  | Checker.Linearizable -> Ok ()
  | Checker.Not_linearizable -> Error "not linearizable"
