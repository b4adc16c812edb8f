(** The history recorder every harness shares: an atomic tick counter
    plus an accumulator, safe for use from several domains.  Simulated
    processes and real domains record through the same step, and one
    verdict judges what was recorded. *)

type t

val create : unit -> t

val tick : t -> int
(** The next timestamp. *)

val add : t -> History.entry list -> unit

val record : t -> pid:int -> History.op -> (unit -> bool) -> unit
(** [record r ~pid op call]: tick, run [call], tick, add the entry.  If
    [call] raises, the operation never returned: its entry is added
    pending, with [ret = max_int] and [ok] a placeholder, and the
    exception is re-raised. *)

val history : t -> History.t
(** All recorded entries, pending ones included, sorted by invocation
    time. *)

val verdict : ?init:Checker.IntSet.t -> t -> (unit, string) result
(** The Wing & Gold verdict over {!history} from [init] (default empty):
    [Error "not linearizable"] if it fails.  A pending entry counts as
    returning [true] at the end of time; to weigh every resolution of a
    crashed operation, split the pending entries off and use
    [Lf_workload.Runner.linearizable_with_pending]. *)
