(** Deadlines: absolute ticks on a {!Clock.t}, created at admission and
    propagated through the pipeline (and over the wire as an absolute
    budget), so every stage can ask the one question that matters under
    overload — "is this work already doomed?" — without re-deriving
    time arithmetic. *)

type t = private int
(** Absolute expiry tick; {!none} means no deadline. *)

val none : t

val at : int -> t
(** An absolute expiry tick.  @raise Invalid_argument if negative. *)

val after : Clock.t -> ticks:int -> t
(** [after c ~ticks] expires [ticks] from now ([none] if
    [ticks = max_int]). *)

val is_none : t -> bool
val expired : now:int -> t -> bool

val remaining : now:int -> t -> int
(** Ticks left (negative if expired; [max_int] if {!none}). *)

val pp : Format.formatter -> t -> unit
