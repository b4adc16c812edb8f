(** The [lfdict serve] line protocol, as parse/format functions so the
    TCP front in [bin/lfdict.ml] stays a dumb read/write loop and the
    protocol itself is unit-testable without sockets.  The server parses
    each line in place into a reused {!Svc.batch} ({!parse_into}) and
    writes replies straight to its channel ({!write_outcome},
    {!write_multi}); {!parse}, {!format_outcome} and {!format_multi} are
    wrappers over the same code for callers that hold strings.

    One request per line, ASCII, space-separated:

    {v
    PUT <key> <value>     insert
    DEL <key>             delete
    GET <key>             find
    MGET <k1> .. <kn>     multi-key find (scatter-gather per shard)
    MSET <k1> <v1> ..     multi-key insert, key/value pairs
    KILL <shard>          chaos: make one shard's backend fail (demo)
    HEALTH                one-line per-shard liveness/readiness summary
    METRICS               Prometheus-format snapshot, terminated by END
    SLO                   one-line multi-window burn-rate summary
    REPLICAS              one-line replica summary: per-slot host, lag, journal
    HEAL                  one-line self-healing supervisor summary
    FLIGHTDUMP            dump the flight recorder; answers OK <path>
    QUIT                  close this connection
    SHUTDOWN              stop the server
    v}

    Operation responses are one line: [OK true], [OK false],
    [STALE <bool> lag=<ticks>] (read served from a lagged replica — the
    staleness is always explicit, never a silent [OK]),
    [REJECTED <reason>], or [FAILED <message>].  A multi-key command
    answers one line — [MULTI <n> <tok> ... <tok>] with exactly one
    token per key in request order ([t]/[f] for served,
    [stale:<t|f>:<lag>] for replica-served, a reject reason, or
    [failed]); a shard that sheds or trips yields per-key tokens, never
    one collapsed error.  Parse errors get [ERR <message>].

    Tokens are separated by one or more spaces; the verb is
    case-insensitive.  Keys, values and shard numbers are decimal:

    {v
    <int> ::= [-] <digit> { <digit> }      within [min_int, max_int]
    v}

    so each number has one spelling apart from leading zeros and [-0].
    Hex, octal and binary prefixes, [_] separators, a leading [+] and
    values outside the int range are all [ERR bad key "<token>"] (or
    [value], [shard]).

    Batches are validated at parse time: empty batches, batches above
    {!max_batch} keys, duplicate keys, and MSET with an odd argument
    count are all [ERR] — a duplicate key has no well-defined per-key
    outcome. *)

type command =
  | Op of Svc.req
  | Multi of Svc.req list  (** MGET/MSET: scatter-gather, per-key outcomes *)
  | Kill of int  (** chaos verb: make one shard's backend fail *)
  | Health
  | Metrics
  | Slo  (** burn-rate summary ([SLO ...] line, or [ERR] untracked) *)
  | Replicas  (** per-slot replica status ([ERR] without [--replicas]) *)
  | Heal  (** supervisor status ([ERR] without [--self-heal]) *)
  | Flightdump  (** dump the span flight recorder to the dump dir *)
  | Quit
  | Shutdown

val max_batch : int
(** Largest accepted multi-key batch (64). *)

(** What a parsed line asks for; the requests themselves are in the
    batch {!parse_into} filled. *)
type verb =
  | V_op  (** GET/PUT/DEL: the batch's one entry *)
  | V_multi  (** MGET/MSET: the batch's [len] entries *)
  | V_kill  (** KILL: the shard number is [keys.(0)]; [len] is 0 *)
  | V_health
  | V_metrics
  | V_slo
  | V_replicas
  | V_heal
  | V_flightdump
  | V_quit
  | V_shutdown

val parse_into : Svc.batch -> string -> int -> int -> (verb, string) result
(** [parse_into b s i j] parses the line [s.[i..j-1]] (no newline; a
    trailing [\r] is ignored) in place into [b], which must have room
    for {!max_batch} entries, and returns its verb.  [s] may be a view
    of a reused buffer ([Bytes.unsafe_to_string]): nothing of it is kept.
    A line that parses allocates nothing: every [Ok] is a constant.  An
    [Error] carries the message {!parse} gives. *)

val parse : string -> (command, string) result
(** {!parse_into} on a whole line, boxed into a {!command}: a wrapper
    for callers that hold a string.  It parses into one batch shared
    under a lock, so it allocates only the command it returns.
    Case-insensitive on the verb; trailing [\r] (telnet) is ignored. *)

val write_outcome : out_channel -> Svc.outcome -> unit
(** The reply line to one operation, newline included.  A served or
    rejected outcome writes constant strings and allocates nothing. *)

val write_multi : out_channel -> Svc.batch -> unit
(** The reply line to a batch, newline included: [MULTI <n>] and one
    token per entry of [outcomes], input order.  Headers and served or
    rejected tokens are constants, so it allocates nothing. *)

val format_outcome : Svc.outcome -> string
(** {!write_outcome}'s line, without its newline, as a string. *)

val format_multi : Svc.outcome list -> string
(** {!write_multi}'s line, without its newline, as one string: the same
    header and tokens. *)

val format_error : string -> string
(** The [ERR ...] line for unparseable input. *)
