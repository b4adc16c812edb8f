(** Valois's lock-free linked list (PODC 1995), the paper's citation [17]:
    auxiliary nodes between cells, cursor-based operations, back_links set
    on deletion to the cursor's (possibly already deleted) predecessor.

    The structural weakness the paper discusses in Section 2 — back_link
    chains of deleted cells can grow with the number of operations, and a
    deletion's cleanup walks the whole chain — is reproduced by EXP-3
    (average cost Omega(m) while list size and contention stay O(1)). *)

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
