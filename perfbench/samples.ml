(* Exact latency samples (ns).  Percentiles come from the samples
   themselves, not from histogram buckets, so run-to-run differences are
   not rounded away. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 4096 0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let concat ts =
  let all = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add all t.a.(i) done) ts;
  all

(* Nearest-rank percentiles, [p] in (0, 1]. *)
let percentiles t ps =
  if t.n = 0 then invalid_arg "Samples.percentiles: no samples";
  let s = Array.sub t.a 0 t.n in
  Array.sort compare s;
  List.map
    (fun p ->
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      float_of_int s.(max 0 (min (t.n - 1) (rank - 1))))
    ps
