(** Lock-free skip list of Fomitchev & Ruppert (PODC 2004, Section 4).

    Each key is a {e tower} of nodes, one per level; every level is a sorted
    singly-linked list maintained with the Section 3 algorithms (mark and
    flag bits, backlinks), so recovery from interference is local at every
    level.  Non-root nodes carry immutable [down] and [tower_root] pointers;
    a tower whose root is marked is {e superfluous}, and searches physically
    delete any superfluous node they encounter (full three-step deletion at
    that level), which is what prevents repeated traversals of dead regions
    (EXP-9 measures the ablation).

    Insertion builds the tower bottom-up and is linearized when the root is
    linked; a deletion arriving mid-build stops the build and removes the
    just-added node.  Deletion deletes the root first (linearization: its
    marking) and leaves the remaining levels to a cleanup search.

    Nodes are inline records with unboxed keys, so links point straight at
    them; the sentinels carry [K.any] and are never compared by key.  Each
    succ descriptor's constructor is its mark and flag ([Clean], [Flagged]
    or [Marked] around [{right; right_key; right_succ}]; the tail's own is
    the constant [End]), and it carries copies of its right node's key and
    [succ] cell, and each node carries
    its down node's cell, so a search step stops, moves right or descends
    through cells and descriptors only, without loading the next node.
    C&S compares whole descriptors physically and never looks at the
    copies; they are not a deviation from the paper.

    Deviations from the paper (recorded in DESIGN.md): the head tower is
    preallocated up to [max_level] instead of growing through [up]
    pointers, and one tail sentinel is shared by all levels; both are
    unobservable through this interface. *)

module type S = Fr_skiplist_intf.S
(** The dictionary and its introspection; documented in
    {!Fr_skiplist_intf.S}. *)

module Make (K : Lf_kernel.Ordered.S) (M : Lf_kernel.Mem.S) :
  S with type key = K.t

(** Instances.  [Atomic_int], the one that ships, is not an application of
    [Make]: it is generated at build time from [Make]'s own text with [K]
    and [M] bound to [Lf_kernel.Ordered.Int] and [Lf_kernel.Atomic_mem]
    (tools/specialize), so its reads, events and key comparisons compile
    inline.  Every other key type and memory goes through the functor. *)

module Atomic_int : S with type key = int
module Atomic_string : S with type key = string
