(** Harris's lock-free linked list (DISC 2001), the paper's primary
    comparison target (its citation [3]).

    Mark-bit two-step deletion; a failed C&S makes the operation restart its
    search from the head.  Section 3.1 of the paper constructs executions
    where that restart costs Omega(n-bar * c-bar) per operation on average —
    EXP-2 reproduces them against this implementation. *)

module type S = sig
  include Lf_kernel.Dict_intf.S

  val fold : 'a t -> ('b -> key -> 'a -> 'b) -> 'b -> 'b

  (** Quiescent / simulator-only introspection (Figure 1 traces). *)
  module Debug : sig
    type cell = {
      key : key Lf_kernel.Ordered.bounded;
      marked : bool;
      is_sentinel : bool;
    }

    val physical_chain : 'a t -> cell list
  end
end

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) :
  S with type key = K.t

(** [Make]'s own text with [K] and [M] bound to [Lf_kernel.Ordered.Int] and
    [Lf_kernel.Atomic_mem], generated at build time (tools/specialize), as
    the paper's structures ship theirs: comparisons against them compare
    algorithms, not compilation. *)
module Atomic_int : S with type key = int
