(** Lock-free hash table with list-based buckets, after Michael (SPAA 2002,
    the paper's citation [8]): a fixed power-of-two array of lock-free
    sorted linked lists, here Fomitchev-Ruppert lists, so every bucket
    operation enjoys O(n_bucket + c) amortized recovery instead of
    restart-from-head.  The bucket count is fixed at creation; Michael's
    dynamic growth is orthogonal to the paper and out of scope
    (DESIGN.md). *)

module type HASHABLE = sig
  include Lf_kernel.Ordered.S

  val hash : t -> int
end

module Make (K : HASHABLE) (M : Lf_kernel.Mem.S) : sig
  include Lf_kernel.Dict_intf.S with type key = K.t

  val create_with :
    ?buckets:int -> ?use_hints:bool -> unit -> 'a t
  (** [buckets] must be a power of two (default 64).  [use_hints] (default
      [true]) is forwarded to every bucket list (see
      [Fr_list.create_with]).
      @raise Invalid_argument if [buckets] is not a power of two. *)

  val iter : 'a t -> (key -> 'a -> unit) -> unit
  (** Iterate every binding, in bucket order (not key order); exact at
      quiescence. *)
end

(** Integer keys under Fibonacci hashing (spreads consecutive keys). *)
module Int_key : HASHABLE with type t = int

module String_key : HASHABLE with type t = string
module Atomic_int : module type of Make (Int_key) (Lf_kernel.Atomic_mem)
module Atomic_string : module type of Make (String_key) (Lf_kernel.Atomic_mem)
