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

(** Multi-domain recorder: an atomic tick counter plus an accumulator;
    each domain records locally and merges after joining. *)
module Recorder : sig
  type r

  val create : unit -> r

  val tick : r -> int
  (** The next timestamp. *)

  val add : r -> entry list -> unit
  val history : r -> t
  (** All recorded entries, sorted by invocation time. *)
end
