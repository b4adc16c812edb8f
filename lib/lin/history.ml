(* Concurrent histories of dictionary operations over integer keys.

   An entry records one completed operation: what it was, what it returned,
   and its real-time interval [inv, ret] (timestamps from a shared monotone
   counter).  Operation A precedes operation B iff A.ret < B.inv; the
   checker must respect that partial order. *)

type op = Find of int | Insert of int | Delete of int

type entry = {
  pid : int;
  op : op;
  ok : bool; (* find: present; insert/delete: succeeded *)
  inv : int;
  ret : int;
}

type t = entry list

let pp_op fmt = function
  | Find k -> Format.fprintf fmt "find(%d)" k
  | Insert k -> Format.fprintf fmt "insert(%d)" k
  | Delete k -> Format.fprintf fmt "delete(%d)" k

let pp_entry fmt e =
  Format.fprintf fmt "[p%d %a -> %b @@ %d..%d]" e.pid pp_op e.op e.ok e.inv
    e.ret

let pp fmt (h : t) =
  Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list pp_entry) h
