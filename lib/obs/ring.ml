(* Bounded ring buffer for the per-domain event recorders.

   Single-writer by construction (one ring per domain-local recorder
   state), so plain mutable fields suffice — no synchronization on the hot
   path.  When full, the oldest event is overwritten and the [dropped]
   counter incremented: a trace is a *window* ending at collection time,
   and the drop count says exactly how much history fell off the front.
   Readers run at quiescence ([to_list] after joining the writers). *)

type 'a t = {
  buf : 'a array;
  capacity : int;
  mutable next : int;  (* total pushes so far; next write goes to next mod capacity *)
  mutable dropped : int;
}

let create ~capacity dummy =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity dummy; capacity; next = 0; dropped = 0 }

let push t x =
  if t.next >= t.capacity then t.dropped <- t.dropped + 1;
  t.buf.(t.next mod t.capacity) <- x;
  t.next <- t.next + 1

let length t = min t.next t.capacity
let dropped t = t.dropped

let clear t dummy =
  Array.fill t.buf 0 t.capacity dummy;
  t.next <- 0;
  t.dropped <- 0

(* Retained events, oldest first. *)
let to_list t =
  let n = length t in
  let first = t.next - n in
  List.init n (fun i -> t.buf.((first + i) mod t.capacity))
