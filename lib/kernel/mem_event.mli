(** Vocabulary for the cost model of Section 3.4 of the paper.

    The analysis counts exactly three kinds of {e essential steps}: C&S
    attempts (classified into the four kinds the billing function
    {m \beta} distinguishes), backlink-pointer traversals, and the
    [next_node]/[curr_node] pointer updates performed by searches.
    Implementations emit these through {!Mem.S.event}; the three memory
    instances erase, count, or schedule them. *)

(** Classification of C&S attempts, matching the paper's four types plus a
    bucket for C&S's performed by baseline algorithms outside the
    taxonomy. *)
type cas_kind =
  | Insertion  (** line 11 of INSERT: linking a new node *)
  | Flagging  (** line 4 of TRYFLAG: pinning the predecessor *)
  | Marking  (** line 3 of TRYMARK: logical deletion *)
  | Physical_delete  (** line 2 of HELPMARKED: unlinking *)
  | Other_cas
      (** C&S outside the four-kind taxonomy (e.g. Harris chain excision,
          Valois cursor operations) *)

(** Cost-model events emitted by the algorithms. *)
type t =
  | Backlink_step  (** one traversal of a backlink pointer *)
  | Next_update  (** [next_node] pointer update in a search (line 6) *)
  | Curr_update  (** [curr_node] pointer update in a search (line 8) *)
  | Aux_step  (** auxiliary-node traversal (Valois baseline) *)
  | Retry  (** an operation restarted its search from scratch *)
  | Help  (** entered a helping routine for another operation *)
  | User of string  (** free-form annotation used by benches and tests *)

val cas_kind_to_string : cas_kind -> string

(** Inverse of {!cas_kind_to_string}; used by the fault-plan parser. *)
val cas_kind_of_string : string -> cas_kind option

val to_string : t -> string
val pp : Format.formatter -> t -> unit
