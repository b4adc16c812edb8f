(** Lock-free sorted singly-linked list of Fomitchev & Ruppert (PODC 2004),
    Figures 3-5 — the paper's primary contribution.

    Every node carries a successor descriptor [(right, mark, flag)] in one
    C&S-able word and a backlink pointer.  Deleting node B with predecessor
    A takes three C&S steps:

    + {e flag} A: [A.succ: (B,0,0) -> (B,0,1)] (TRYFLAG) — pins A;
    + {e mark} B: set [B.backlink <- A], then [B.succ: (C,0,0) -> (C,1,0)]
      (TRYMARK) — the linearization point of the deletion;
    + {e unlink} B and unflag A: [A.succ: (B,0,1) -> (C,0,0)] (HELPMARKED).

    An operation that fails a C&S because its predecessor got marked follows
    backlinks to the nearest unmarked node and resumes there instead of
    restarting from the head; because a node is only marked while its
    predecessor is flagged (hence unmarked), backlinks never point at marked
    nodes when set, chains of backlinks cannot grow rightward, and the
    amortized cost of an operation S is O(n(S) + c(S)) — list size plus
    point contention (the paper's Theorem, validated by EXP-1).

    All operations are linearizable (Section 3.3; checked mechanically by
    the test suite and EXP-10) and lock-free: a stalled process never blocks
    others, who help pending deletions to completion. *)

module type S = Fr_list_intf.S
(** The dictionary and its introspection; documented in {!Fr_list_intf.S}. *)

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) :
  S with type key = K.t

(** Instances.  [Atomic_int], the one that ships, is not an application of
    [Make]: it is generated at build time from [Make]'s own text with [K]
    and [M] bound to [Lf_kernel.Ordered.Int] and [Lf_kernel.Atomic_mem]
    (tools/specialize), so its reads, events and key comparisons compile
    inline.  Every other key type and memory goes through the functor. *)

module Atomic_int : S with type key = int
module Atomic_string : S with type key = string
module Counting_int : S with type key = int
