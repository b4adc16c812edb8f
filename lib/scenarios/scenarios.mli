(** The paper's adversarial executions and measurement scenarios, shared by
    the benchmark harness (bench/exp*.ml) and the shape-lock regression
    tests (test/test_experiments.ml), so the published tables and the test
    suite exercise the same code.

    All scenarios run in the deterministic simulator; DESIGN.md documents
    each schedule's construction and EXPERIMENTS.md the measured results. *)

(** {1 EXP-1: amortized bound on the FR list} *)

val exp1_run : q:int -> n0:int -> seed:int -> int * int * int
(** Random mixed workload of [q] processes over an [n0]-key list; returns
    (total essential steps, sum over ops of n(S)+c(S), #ops).  The paper's
    theorem bounds the first by a constant times the second. *)

(** {1 EXP-2: the Section 3.1 tail adversary (linked lists)} *)

val fr_list_target : unit -> Lf_workload.Dict.t
val harris_list_target : unit -> Lf_workload.Dict.t
val michael_list_target : unit -> Lf_workload.Dict.t

val tail_adversary :
  n:int ->
  q:int ->
  rounds:int ->
  (unit -> Lf_workload.Dict.t) ->
  float * float * int
(** Park [q-1] inserters at their pending insertion C&S at the tail of an
    [n]-key list; a deleter removes the last node once per round, releasing
    each inserter exactly once per round.  Returns (avg essential steps per
    op, inserter recovery steps per round per inserter, total ops). *)

(** {1 EXP-3: the Valois Omega(m) execution} *)

type omega_target = {
  ops : Lf_workload.Dict.t;
  park_kind : Lf_kernel.Mem_event.cas_kind;
      (** the first C&S of this implementation's deletion, where the
          adversary parks a cursor across its predecessor's deletion *)
}

val valois_omega_target : unit -> omega_target
val fr_omega_target : unit -> omega_target

val omega_schedule : m:int -> (unit -> omega_target) -> float * int
(** Two alternating deleters with parked stale cursors plus a producer;
    the live list stays at 2-3 cells and contention at 3 while back_link
    chains grow.  Returns (avg essential steps per delete op, total
    backlink+aux chain steps). *)

(** {1 EXP-9: superfluous-helping ablation (FR skip list)} *)

val superfluous_mode : help_superfluous:bool -> m:int -> float * int
(** [m] rounds of insert-tall-tower / delete / search-past-it, single
    process.  Returns (avg essential steps per op, dead nodes still linked
    at the end). *)

(** {1 EXP-13/15: the tail adversary for skip lists} *)

type sl_target = {
  insert1 : int -> bool;  (** height-1 insert *)
  sdelete : int -> bool;
  prefill : int -> unit;  (** deterministic-height insert of one key *)
}

val tz_height : int -> int
(** Perfect-skip-list profile: trailing zeros of the key plus one. *)

val fr_sl_target : unit -> sl_target
val fraser_sl_target : unit -> sl_target
val st_sl_target : unit -> sl_target

val sl_tail_adversary :
  n:int -> q:int -> rounds:int -> (unit -> sl_target) -> float
(** The EXP-2 schedule over a skip list with [tz_height] prefill heights;
    returns the inserter recovery steps per round per inserter. *)

(** {1 Shape-lock wrappers (used by test/test_experiments.ml)} *)

val exp2_recovery : n:int -> float * float
(** (FR recovery/round, Harris recovery/round) at q=4, rounds=n/2. *)

val exp3_avg : m:int -> float * float
(** (Valois avg steps/op, FR avg steps/op). *)

val exp9_avg : m:int -> float * float
(** (no-helping avg, helping avg). *)

val exp13_recovery : n:int -> float * float
(** (FR skip-list recovery/round, Fraser recovery/round). *)
