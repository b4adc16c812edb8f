(* The clock seam: policies read ticks through [t], never the system
   clock, so the same code is deterministic under the simulator. *)

type t = { read : unit -> int; tpm : int }

let now c = c.read ()
let ms c n = n * c.tpm

let real () =
  { read = (fun () -> int_of_float (Unix.gettimeofday () *. 1e9)); tpm = 1_000_000 }

let sim ?(ticks_per_ms = 100) () =
  { read = Lf_dsim.Sim.virtual_now; tpm = ticks_per_ms }

let manual ?(ticks_per_ms = 1) ?(start = 0) () =
  let t = ref start in
  ( { read = (fun () -> !t); tpm = ticks_per_ms },
    fun d ->
      if d < 0 then invalid_arg "Clock.manual: advance must be >= 0";
      t := !t + d )
