(** Small-scope certification of the repository's structures under the
    DPOR model checker: canonical conflict scenarios, oracles (protocol
    sanitizer + structural invariants + linearizability, or conservation
    for the priority queue), the seeded-mutant kill gate, and deterministic
    report rendering (the [lfdict model] subcommand and EXP-21 are thin
    wrappers over this module).

    Everything here is a pure function of the scenario: reports are
    byte-identical across runs and processes, which CI checks. *)

type op = I of int | D of int | F of int
(** One scripted operation.  For dictionaries: insert / delete / find of
    the key.  For the priority queue the same scripts are reinterpreted:
    [I k] pushes priority [k], [D _] pops the minimum, [F _] peeks. *)

type scenario = {
  sc_name : string;
  sc_initial : int list;  (** keys inserted (pushed) before the run *)
  sc_scripts : op list list;  (** one script per process *)
}

val scenarios : ?structure:string -> quick:bool -> unit -> scenario list
(** The canonical small-scope grid: 2 processes x 2 ops (conflict and
    hotspot), 2 x 3 (the acceptance scope), and with [quick:false] also
    3 x 1.  Scope names are stable across structures; the scripts behind
    them are moderated for ["fr-skiplist"] (height-2 tower deletions under
    a symmetric conflict exceed exhaustible trace counts) and for
    ["pqueue"] (three competing pops of the shared minimum do too). *)

val structures : string list
(** Certifiable structures: the FR list and skip list (under the
    {!Lf_check.Check_mem} sanitizer), the hash table, the priority queue,
    and the Harris and Valois baselines (plain memory; they do not speak
    the flag/backlink protocol). *)

val mk :
  structure:string ->
  ?mutation:string ->
  scenario ->
  unit ->
  (Lf_dsim.Sim.pid -> unit) array * (unit -> (unit, string) result)
(** Scenario builder with the {!Dpor.run} / {!Lf_dsim.Explore.run}
    contract: each call builds a fresh structure (and, for the checked
    structures, a fresh sanitizer instance), prefills it quietly, and
    returns process bodies plus the oracle.  [mutation] (fr-list only)
    seeds a protocol bug: ["skip-flag"], ["double-mark"],
    ["unlink-unflagged"], ["backlink-right"], ["no-help"].
    @raise Invalid_argument on unknown structure or mutation. *)

val dict_mk :
  (unit -> Lf_workload.Dict.t) ->
  scenario ->
  unit ->
  (Lf_dsim.Sim.pid -> unit) array * (unit -> (unit, string) result)
(** {!mk} over a dictionary of the caller's: each call builds a fresh one,
    inserts [sc_initial] quietly, and returns one body per script plus the
    oracle — the dictionary's [check] (which a checked memory's sanitizer
    may have raised from already), then the Wing & Gold verdict over the
    recorded history. *)

(** {1 Certification} *)

type certificate = {
  ct_structure : string;
  ct_scenario : string;
  ct_procs : int;
  ct_ops : int;  (** scripted operations, all processes *)
  ct_outcome : Dpor.outcome;
}

val replays : Dpor.outcome -> int
(** Total replays: complete schedules plus sleep-set prunes. *)

val certify :
  ?max_schedules:int ->
  ?max_steps:int ->
  structure:string ->
  scenario ->
  certificate

val certify_all :
  ?max_schedules:int -> quick:bool -> structures:string list -> unit ->
  certificate list

(** {1 Mutant-kill gate} *)

type kill = {
  k_mutation : string;
  k_survived : (string * int) list;
      (** scopes below the kill where the mutant survived exhaustive
          exploration (scope name, replays spent) — the evidence that the
          killing scope is minimal *)
  k_killed_at : (string * int * string) option;
      (** killing scope, replays to the first failure, first line of the
          failure message; [None] if no scope killed it (a gate failure) *)
}

val kill_matrix : unit -> kill list
(** Run every seeded fr-list mutant up the scope ladder (1 process, then
    2) under DPOR with a small step budget, so the [No_help] livelock
    surfaces as a step-budget failure.  Each scope is explored to
    exhaustion or first failure. *)

(** {1 Rendering (deterministic)} *)

val render_certificates : json:bool -> certificate list -> string
val render_kills : json:bool -> kill list -> string

val certificates_ok : certificate list -> bool
(** No failures and every scope exhausted. *)

val kills_ok : kill list -> bool
(** Every mutant killed. *)
