(** Concurrent histories of dictionary operations over integer keys.

    An entry records one completed operation, its boolean outcome, and its
    real-time interval [inv .. ret] in ticks of a shared monotone counter;
    operation A precedes operation B iff [A.ret < B.inv], and the checker
    must respect that partial order. *)

type op = Find of int | Insert of int | Delete of int

type entry = {
  pid : int;
  op : op;
  ok : bool;  (** find: present; insert/delete: succeeded *)
  inv : int;
  ret : int;
}

type t = entry list

val pp : Format.formatter -> t -> unit
