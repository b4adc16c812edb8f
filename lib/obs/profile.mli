(** Contention profiler: attributes C&S failures to protocol phase — the
    paper's TRYFLAG ([flag]) / TRYMARK ([mark]) / HELPMARKED ([unlink]) /
    INSERT ([insert]) steps, straight from the {!Lf_kernel.Mem_event.cas_kind}
    classification — and to the key of the operation span that suffered
    them.  One [t] per domain-local recorder state; merge, then rank. *)

type t

val create : unit -> t
val clear : t -> unit

val no_key : int
(** Sentinel for "no operation span open": counts toward phase totals
    only. *)

val record : t -> key:int -> Lf_kernel.Mem_event.cas_kind -> unit
(** Record one {e failed} C&S.  O(1). *)

val merge_into : into:t -> t -> unit

val phase_name : int -> string
val phase_index : Lf_kernel.Mem_event.cas_kind -> int

type hot_key = {
  hk_key : int;
  hk_fails : int;
  hk_phase : string;  (** the phase contributing most of this key's failures *)
}

type report = {
  r_total : int;
  r_by_phase : (string * int) list;  (** nonzero, most-contended first *)
  r_hot_keys : hot_key list;  (** most-contended first, truncated to [top] *)
}

val report : ?top:int -> t -> report
(** Ranked contention report; ties rank by key for determinism.  [top]
    (default 10) bounds [r_hot_keys]. *)

val pp_report : Format.formatter -> report -> unit
