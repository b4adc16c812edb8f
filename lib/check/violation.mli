(** Structured reports for protocol violations detected by {!Check_mem}. *)

type event = {
  pid : int;  (** process / domain the access is attributed to *)
  cell : int;  (** [Mem.S.stamp] of the accessed cell *)
  owner : string;  (** rendered key of the node owning the cell *)
  action : string;  (** e.g. ["flag-cas ok"], ["mark-cas fail"], ["set"] *)
  detail : string;  (** rendered transition *)
}

type t = {
  invariant : string;
      (** which invariant broke, e.g. ["INV2: marked is terminal"];
          ["protocol: ..."] for shape errors outside the numbered INV 1-5 *)
  culprit : event;
  trace : (int * event list) list;
      (** bounded tail of recent protocol-cell mutations, per pid *)
  snapshot : string list;  (** one rendered chain per annotated head cell *)
}

exception Protocol_violation of t
(** Raised by {!Check_mem} at the offending access.  Registered with
    [Printexc], so [Printexc.to_string] yields the full report. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
