type t = Real | Sim_steps | Manual of (unit -> int)

let now = function
  | Real -> Int64.to_int (Monotonic_clock.now ())
  | Sim_steps -> Lf_dsim.Sim.virtual_now ()
  | Manual read -> read ()

let ms c n =
  n * match c with Real -> 1_000_000 | Sim_steps -> 100 | Manual _ -> 1

let real () = Real
let sim () = Sim_steps

let manual () =
  let t = ref 0 in
  ( Manual (fun () -> !t),
    fun d ->
      if d < 0 then invalid_arg "Clock.manual: advance must be >= 0";
      t := !t + d )
