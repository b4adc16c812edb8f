(* Absolute-tick deadlines; [max_int] = none. *)

type t = int

let none = max_int

let at d =
  if d < 0 then invalid_arg "Deadline.at: negative tick";
  d

let is_none d = d = max_int
let expired ~now d = d <> max_int && now > d
let remaining ~now d = if d = max_int then max_int else d - now

let pp ppf d =
  if d = max_int then Format.pp_print_string ppf "none"
  else Format.fprintf ppf "@%d" d
