(* Box-speed calibration.

   The benchmark runs on small virtual machines whose effective speed
   drifts by 20-50% over seconds with the load of their neighbours, so a
   run that lands in a slow phase reads slower although the code did not
   change.  Every timed window is therefore cut into slices of [slice_ns];
   at each slice boundary fixed reference loops are timed, and the
   slice's times are scaled to the reference speed by [factor].

   The reference loops are the benchmark's own code and touch nothing
   under test:
   - [cpu]: a walk through a random cycle of 32k ints (pointer chasing
     out of L1, like a structure search) with integer mixing;
   - [kernel]: 1-byte write/read pairs on a pipe, the system-call path a
     socket round trip takes;
   - [memory]: a walk through a random cycle of 8M ints (64 MiB), where
     every step misses the caches, like a search on a large, busy heap.
   Which product of them a window is scaled by depends on what its time
   is made of ([kind]); the choice was measured on loopback runs (see the
   README).  The nominal times fix the unit (roughly an unloaded 2-vCPU
   Xeon VM), not the ratios between runs. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The box speed is re-measured this often inside a timed window. *)
let slice_ns = 50_000_000

(* A random single cycle through [0, n): Sattolo's shuffle. *)
let cycle n =
  let next = Array.init n Fun.id in
  let s = ref 0x9e3779b9 in
  for i = n - 1 downto 1 do
    s := ((!s * 0x5851f42d) + 0x14057b7e) land 0x3fffffff;
    let j = !s mod i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  next

let small = cycle (1 lsl 15)

let cpu_loop () =
  let p = ref 0 and h = ref 0 in
  for _ = 1 to 40_000 do
    p := small.(!p);
    h := (!h lxor !p) * 0x2545f491 land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !h)

let pipe_r, pipe_w = Unix.pipe ~cloexec:true ()
let byte = Bytes.create 1

let kernel_loop () =
  for _ = 1 to 100 do
    ignore (Unix.write pipe_w byte 0 1);
    ignore (Unix.read pipe_r byte 0 1)
  done

(* Built on first use: only [Memory] windows pay for 64 MiB.  Each walk
   starts at a clock-drawn node, so it finds the caches cold without any
   state shared between domains. *)
let large = lazy (cycle (1 lsl 23))

let memory_loop () =
  let next = Lazy.force large in
  let p = ref (now_ns () land (Array.length next - 1)) in
  for _ = 1 to 5_000 do
    p := next.(!p)
  done;
  ignore (Sys.opaque_identity !p)

(* Best of three, so that a preemption inside a loop does not read as a
   slow box. *)
let best loop =
  let b = ref max_int in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    loop ();
    b := min !b (now_ns () - t0)
  done;
  float_of_int !b

let cpu () = 200_000. /. best cpu_loop
let kernel () = 100_000. /. best kernel_loop
let memory () = 500_000. /. best memory_loop

(* What a window's time is made of: in-process work, kernel round trips,
   or server work on a large heap. *)
type kind = Cpu | Socket | Memory

(* The factor that scales times measured now to the reference speed. *)
let factor = function
  | Cpu -> cpu ()
  | Socket -> cpu () *. kernel ()
  | Memory -> cpu () *. memory ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Calib.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
