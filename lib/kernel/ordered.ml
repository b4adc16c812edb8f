(* Key discipline for the dictionaries, plus the −∞ / +∞ sentinels the paper
   stores in the head and tail nodes. *)

module type S = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  val any : t
end

module Int = struct
  type t = int

  external compare : int -> int -> int = "%compare"
  let pp = Format.pp_print_int
  let any = 0
end

module String : S with type t = string = struct
  type t = string

  let compare = String.compare
  let pp fmt s = Format.fprintf fmt "%S" s
  let any = ""
end

type 'a bounded = Neg_inf | Mid of 'a | Pos_inf

module Bounded (K : S) = struct
  type t = K.t bounded

  let compare a b =
    match (a, b) with
    | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> 0
    | Neg_inf, _ -> -1
    | _, Neg_inf -> 1
    | Pos_inf, _ -> 1
    | _, Pos_inf -> -1
    | Mid a, Mid b -> K.compare a b

  let lt a b = compare a b < 0
  let le a b = compare a b <= 0
  let equal a b = compare a b = 0

  let pp fmt = function
    | Neg_inf -> Format.pp_print_string fmt "-inf"
    | Pos_inf -> Format.pp_print_string fmt "+inf"
    | Mid k -> K.pp fmt k
end
