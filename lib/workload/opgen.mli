(** Operation mixes: insert / delete percentages, the rest searches. *)

type op = Lf_lin.History.op = Find of int | Insert of int | Delete of int
(** The history's operations, so a drawn operation is recorded as is. *)

type mix = { insert_pct : int; delete_pct : int }

val write_heavy : mix
(** 50% insert / 50% delete. *)

val mixed : mix
(** 20% insert / 20% delete / 60% search. *)

val read_mostly : mix
(** 5% / 5% / 90%. *)

val pp_mix : Format.formatter -> mix -> unit

type kind = Insert_k | Delete_k | Find_k
(** Payload-free op kind (constant constructors, so no [op] is boxed;
    the draw is one [Splitmix.int rng 100], which allocates nothing).  Hot
    loops draw the key themselves and dispatch on the kind; drawing the
    key first and then [draw_kind] consumes the RNG stream exactly as
    {!draw} does. *)

val draw_kind : mix -> Lf_kernel.Splitmix.t -> kind

val draw : mix -> Keygen.t -> Lf_kernel.Splitmix.t -> op
(** [draw mix kg rng] = key from [kg], then the kind — equivalent to the
    split path, boxed into an {!op}. *)
