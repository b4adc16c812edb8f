(** Sundell-Tsigas-style lock-free skip list (SAC 2004, the paper's
    citation [15]): Pugh-architecture nodes with marked next-pointer arrays
    plus a best-effort per-node backlink set at deletion.

    Recovery discipline (the one the paper characterizes in Sections 2 and
    4): a traversal that finds its predecessor deleted follows the
    predecessor's backlink {e if} it is already set {e and} the tower it
    points to reaches the current level; otherwise it restarts from the
    top.  Sits between the Fomitchev-Ruppert skip list (always-local
    recovery) and the Fraser baseline (always restart); EXP-15 measures all
    three. *)

module type S = sig
  include Lf_kernel.Dict_intf.S

  val create_with : ?max_level:int -> unit -> 'a t
  val insert_with_height : 'a t -> height:int -> key -> 'a -> bool
  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
end

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) :
  S with type key = K.t

(** [Make]'s own text with [K] and [M] bound to [Lf_kernel.Ordered.Int] and
    [Lf_kernel.Atomic_mem], generated at build time (tools/specialize), as
    the paper's structures ship theirs: comparisons against them compare
    algorithms, not compilation. *)
module Atomic_int : S with type key = int
