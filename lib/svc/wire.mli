(** The [lfdict serve] line protocol, as pure parse/format functions so
    the TCP front in [bin/lfdict.ml] stays a dumb read/write loop and
    the protocol itself is unit-testable without sockets.

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

val parse : string -> (command, string) result
(** Case-insensitive on the verb; trailing [\r] (telnet) is ignored. *)

val format_outcome : Svc.outcome -> string

val format_multi : Svc.outcome list -> string
(** [MULTI <n> <tok>...] — one token per outcome, input order. *)

val format_error : string -> string
(** The [ERR ...] line for unparseable input. *)
