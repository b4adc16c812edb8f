(* Vocabulary for the cost model of Section 3.4 of the paper.

   The essential steps of an operation are: C&S attempts (classified by the
   four kinds the paper's mapping [beta] distinguishes), backlink pointer
   traversals, and the [next_node] / [curr_node] pointer updates performed by
   searches.  Implementations emit these through {!Mem.S.event} so that the
   same algorithm code can run uninstrumented on atomics, with cheap counters,
   or inside the deterministic simulator. *)

type cas_kind =
  | Insertion          (* line 11 of INSERT *)
  | Flagging           (* line 4 of TRYFLAG *)
  | Marking            (* line 3 of TRYMARK *)
  | Physical_delete    (* line 2 of HELPMARKED *)
  | Other_cas          (* C&S performed by baseline algorithms outside the
                          four-kind taxonomy (e.g. Harris chain excision) *)

type t =
  | Backlink_step      (* one traversal of a backlink pointer *)
  | Next_update        (* [next_node] pointer update in a search *)
  | Curr_update        (* [curr_node] pointer update in a search *)
  | Aux_step           (* auxiliary-node traversal (Valois baseline) *)
  | Retry              (* an operation restarted from scratch *)
  | Help               (* entered a helping routine for another operation *)
  | User of string     (* free-form annotation, used by benches and tests *)

let cas_kind_to_string = function
  | Insertion -> "insert-cas"
  | Flagging -> "flag-cas"
  | Marking -> "mark-cas"
  | Physical_delete -> "unlink-cas"
  | Other_cas -> "other-cas"

let cas_kind_of_string = function
  | "insert-cas" -> Some Insertion
  | "flag-cas" -> Some Flagging
  | "mark-cas" -> Some Marking
  | "unlink-cas" -> Some Physical_delete
  | "other-cas" -> Some Other_cas
  | _ -> None

let to_string = function
  | Backlink_step -> "backlink"
  | Next_update -> "next-update"
  | Curr_update -> "curr-update"
  | Aux_step -> "aux-step"
  | Retry -> "retry"
  | Help -> "help"
  | User s -> "user:" ^ s

let pp fmt e = Format.pp_print_string fmt (to_string e)
