(** Fraser-style lock-free skip list (Fraser 2003, the paper's citation
    [2]; the Herlihy-Shavit textbook algorithm): one node per key with an
    array of marked next pointers, every level maintained Harris-style.

    No backlinks, no flags: any C&S failure (snip, insertion, upper-level
    link) restarts the search from the top of the structure.  This is the
    contrast class for the Fomitchev-Ruppert skip list's local recovery
    (EXP-13).  Note that marked nodes may survive at quiescence if no
    search happens to pass them again; snapshots skip them. *)

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
