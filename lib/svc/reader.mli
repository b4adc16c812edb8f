(** A connection's line reader over one reusable buffer.

    The reader is fed by a read function with [Unix.read]'s contract
    ([read buf off len] fills at most [len] bytes of [buf] from [off]
    and returns how many, 0 at end of input), so this library needs no
    [unix] and tests can script the chunks.  It hands out each complete
    line as offsets into the buffer, and keeps a partial line for the
    next read.  Handing out a line allocates nothing.

    - A line whose newline does not arrive within the buffer's
      [capacity] bytes is reported once as {!Too_long}, and the reader
      then skips the rest of it, up to and including its newline.
    - At end of input, an unterminated last line is handed out as a line
      when it is not empty, the way [input_line] returns it. *)

type t

type status =
  | Line  (** a line: [line t] from [first t] to [last t] (exclusive) *)
  | Too_long  (** a line longer than the buffer; it is being skipped *)
  | Eof

val create : ?capacity:int -> (bytes -> int -> int -> int) -> t
(** [capacity] (default 65536, at least 1) bounds a line, newline
    included. *)

val next : t -> status
(** The next line, reading only when no complete line is buffered.  An
    exception from the read function propagates; the reader is then
    unusable. *)

val has_line : t -> bool
(** A complete line is buffered, so {!next} will not read: a server
    flushes its replies when this is [false], before it blocks. *)

val line : t -> string
(** A view of the buffer (no copy): valid until the next {!next}. *)

val first : t -> int
val last : t -> int
(** The last line handed out is [line t] from [first t] to [last t]
    (exclusive), without its newline. *)
