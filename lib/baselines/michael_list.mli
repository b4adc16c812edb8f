(** Michael's lock-free list (SPAA 2002), the paper's citation [8]:
    Harris-style marking with a traversal that unlinks marked nodes one at a
    time (the structure that makes it compatible with safe memory
    reclamation — moot under OCaml's GC, but the traversal and its
    restart-from-head behaviour are preserved). *)

module type S = sig
  include Lf_kernel.Dict_intf.S

  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b
end

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) :
  S with type key = K.t

(** [Make]'s own text with [K] and [M] bound to [Lf_kernel.Ordered.Int] and
    [Lf_kernel.Atomic_mem], generated at build time (tools/specialize), as
    the paper's structures ship theirs: comparisons against them compare
    algorithms, not compilation. *)
module Atomic_int : S with type key = int
