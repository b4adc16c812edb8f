(** A dictionary under test over int keys: the one record every harness
    takes ({!Sim_driver}, {!Runner}'s recorded and chaos runs,
    [Lf_model.Certify]'s scenarios). *)

type t = {
  insert : int -> bool;
  delete : int -> bool;
  find : int -> bool;  (** membership *)
  check : unit -> unit;
      (** raises [Failure] on a structural-invariant violation; quiescent
          use only *)
}

(** The record over an instance of any dictionary: [insert t k k],
    [delete t k], [mem t k] and [check_invariants t]. *)
module Of (D : Lf_kernel.Dict_intf.S with type key = int) : sig
  val make : int D.t -> t
end

val apply : t -> Opgen.op -> bool
(** Run one operation. *)
