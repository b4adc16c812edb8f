(* [buf.[start..stop-1]] is read but not yet handed out; no byte of
   [buf.[start..scanned-1]] is a newline.  While [skipping], the bytes
   up to the next newline belong to a line already answered as too
   long. *)

type t = {
  buf : Bytes.t;
  read : Bytes.t -> int -> int -> int;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;
  mutable first : int;
  mutable last : int;
  mutable skipping : bool;
  mutable eof : bool;
}

type status = Line | Too_long | Eof

let create ?(capacity = 65536) read =
  if capacity < 1 then invalid_arg "Reader.create: capacity";
  {
    buf = Bytes.create capacity;
    read;
    start = 0;
    stop = 0;
    scanned = 0;
    first = 0;
    last = 0;
    skipping = false;
    eof = false;
  }

let line t = Bytes.unsafe_to_string t.buf
let first t = t.first
let last t = t.last

(* The position of the next newline, or -1; remembers how far it
   looked. *)
let rec newline t =
  if t.scanned >= t.stop then -1
  else if Bytes.unsafe_get t.buf t.scanned = '\n' then t.scanned
  else begin
    t.scanned <- t.scanned + 1;
    newline t
  end

let has_line t = (not t.skipping) && newline t >= 0

let hand_out t last ~next =
  t.first <- t.start;
  t.last <- last;
  t.start <- next;
  t.scanned <- next;
  Line

let clear t =
  t.start <- 0;
  t.stop <- 0;
  t.scanned <- 0

(* Read more behind the partial line, moving it to the front first when
   the buffer's tail is full. *)
let fill t =
  if t.start = t.stop then clear t
  else if t.stop = Bytes.length t.buf && t.start > 0 then begin
    let n = t.stop - t.start in
    Bytes.blit t.buf t.start t.buf 0 n;
    t.start <- 0;
    t.stop <- n;
    t.scanned <- n
  end;
  if t.stop < Bytes.length t.buf then begin
    let n = t.read t.buf t.stop (Bytes.length t.buf - t.stop) in
    if n = 0 then t.eof <- true else t.stop <- t.stop + n
  end

let rec next t =
  let nl = newline t in
  if nl >= 0 then
    if t.skipping then begin
      t.skipping <- false;
      t.start <- nl + 1;
      t.scanned <- nl + 1;
      next t
    end
    else hand_out t nl ~next:(nl + 1)
  else if t.skipping then
    if t.eof then Eof
    else begin
      clear t;
      fill t;
      next t
    end
  else if t.eof then
    if t.start < t.stop then hand_out t t.stop ~next:t.stop else Eof
  else if t.start = 0 && t.stop = Bytes.length t.buf then begin
    t.skipping <- true;
    clear t;
    Too_long
  end
  else begin
    fill t;
    next t
  end
