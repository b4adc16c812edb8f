(** Key discipline for the dictionaries, plus the -inf / +inf sentinels the
    paper stores in the head and tail nodes. *)

module type S = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit

  val any : t
  (** Some value of the type, used where a key must be stored but is never
      compared.  [Fr_list] and [Fr_skiplist] keep keys unboxed, so their
      sentinels carry [any] as their key, and so does every succ
      descriptor whose right node is the tail; each tells sentinels from
      regular nodes without looking at keys.  Any value will do, including one that is also a
      live key: [Int] uses [0] and [String] [""]. *)
end

(** [compare] is the [%compare] primitive at [int], so a caller that names
    this module directly (the shipped [Atomic_int] instances) compiles it to
    an inline comparison instead of a call, even under [-opaque]. *)
module Int : sig
  type t = int

  external compare : int -> int -> int = "%compare"
  val pp : Format.formatter -> t -> unit
  val any : t
end

module String : S with type t = string

(** A key extended with the sentinels: [Neg_inf < Mid k < Pos_inf]. *)
type 'a bounded = Neg_inf | Mid of 'a | Pos_inf

(** Total order on bounded keys. *)
module Bounded (K : S) : sig
  type t = K.t bounded

  val compare : t -> t -> int
  val lt : t -> t -> bool
  val le : t -> t -> bool
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
