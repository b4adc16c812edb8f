(* The dictionary abstract data type every implementation in this
   repository exposes (the paper's SEARCH / INSERT / DELETE in OCaml
   clothing).  One signature for all nine implementations is what lets the
   workload runner, stress tests, linearizability battery and benchmarks be
   written once.  It lives in a unit with no interface, as fr_list_intf.ml
   does, so the signatures are written once. *)

module type S = sig
  type key

  type 'a t
  (** A dictionary from [key] to ['a]. *)

  val name : string
  (** Short identifier used in benchmark tables. *)

  val create : unit -> 'a t

  val find : 'a t -> key -> 'a option
  (** SEARCH: the element bound to [key], if present. *)

  val mem : 'a t -> key -> bool

  val insert : 'a t -> key -> 'a -> bool
  (** INSERT: [true] on success, [false] if the key was already present
      (the paper's DUPLICATE_KEY). *)

  val delete : 'a t -> key -> bool
  (** DELETE: [true] on success, [false] if absent (NO_SUCH_KEY). *)

  val to_list : 'a t -> (key * 'a) list
  (** Snapshot of the regular (non-deleted) bindings in key order.  Only an
      exact snapshot at quiescence for the concurrent implementations. *)

  val length : 'a t -> int

  val check_invariants : 'a t -> unit
  (** Raises [Failure] on any structural-invariant violation (sortedness,
      INV 1-5 where applicable).  Quiescent use only. *)
end

(** Dictionaries that additionally support batched operations: the batch is
    processed in key order, each element carrying its predecessor to the
    next (the Träff–Pöter "pragmatic" pattern).  Results come back in the
    caller's original order; every element remains an independent
    linearizable operation that takes effect inside the batch call.
    [Fr_list] is the one implementation: its SEARCHFROM may start at any
    validated unmarked node, so the carry saves a traversal per element
    (EXP-17 Part C). *)
module type BATCHED = sig
  include S

  val insert_batch : 'a t -> (key * 'a) list -> bool list
  val delete_batch : 'a t -> key list -> bool list
  val mem_batch : 'a t -> key list -> bool list
end
