(** Linearizability checker for dictionary histories: Wing & Gold search
    with memoization on (set of linearized operations, abstract state).

    The abstract specification is an integer set:
    [find k] returns membership; [insert k] succeeds iff absent and adds;
    [delete k] succeeds iff present and removes.  An operation may be
    linearized next iff no other pending operation returned before it was
    invoked. *)

module IntSet : Set.S with type elt = int

val apply : IntSet.t -> History.op -> bool * IntSet.t
(** The sequential specification: result and next state. *)

type verdict = Linearizable | Not_linearizable

val check : ?init:IntSet.t -> History.t -> verdict
(** Decide linearizability against the dictionary specification starting
    from [init] (default empty).  Any length is accepted; the search
    grows with how many operations overlap, so record short concurrent
    bursts. *)
