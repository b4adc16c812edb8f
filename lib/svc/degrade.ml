type mode = Normal | Read_only | Coalesce

type policy = { on_open : mode; on_half_open : mode }

let policy ?(on_open = Read_only) ?(on_half_open = Normal) () =
  { on_open; on_half_open }

let mode_for p = function
  | Breaker.Closed -> Normal
  | Breaker.Open -> p.on_open
  | Breaker.Half_open -> p.on_half_open

let mode_to_string = function
  | Normal -> "normal"
  | Read_only -> "read-only"
  | Coalesce -> "coalesce"
