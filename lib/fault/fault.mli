(** Deterministic, seeded, replayable fault plans.

    A {!plan} is a list of {!rule}s, each naming a target
    ({!Lf_kernel.Fault_point}), an {!action} and a firing {!mode}.
    Executing a plan ({!start}) builds per-lane decision state — one
    SplitMix stream per lane, derived from the plan {!plan.seed} — so the
    faults a lane observes depend only on (seed, that lane's access
    sequence): the same workload replays the same faults regardless of how
    the domains interleave.

    This module decides and records; the injection itself (failing a C&S,
    raising {!Crashed}, burning a stall) is performed by {!Fault_mem},
    which consults {!on_access} before each shared access it forwards. *)

type action =
  | Fail_cas  (** report the C&S as failed without attempting it *)
  | Crash  (** raise {!Crashed} before the access: the operation dies
              mid-protocol, leaving its flags/marks for helpers *)
  | Stall of int
      (** delay before the access: [n] rounds of {!Lf_kernel.Mem.S.pause}
          (a [cpu_relax] storm on real atomics, [n] forced deschedulings in
          the simulator) *)

type mode =
  | Always
  | At of int  (** the k-th matching access of a lane, 1-based *)
  | Rate of float * int
      (** [(p, burst)]: each match fires with probability [p] (per-lane
          seeded stream); a hit extends to [burst] consecutive matches,
          modelling failure storms rather than isolated blips *)

type rule = {
  point : Lf_kernel.Fault_point.t;
  action : action;
  mode : mode;
  lane : int option;  (** [None] targets every lane *)
}

type plan = { seed : int; rules : rule list }

exception Crashed of string
(** Raised by [Fault_mem] at a [Crash] injection.  The payload names the
    access that was about to execute.  Harness code treats the operation
    as dead: its effects so far stay in the structure for helpers. *)

(** One injected fault, in the order decided. *)
type injected = {
  i_lane : int;
  i_rule : int;  (** index into [plan.rules] *)
  i_action : action;
  i_access : Lf_kernel.Fault_point.access;
  i_seq : int;  (** the lane's access sequence number, from 1 *)
}

val no_faults : plan
val make_plan : ?seed:int -> rule list -> plan

val spurious :
  ?lane:int -> ?p:float -> ?burst:int -> Lf_kernel.Fault_point.t -> rule
(** Spurious C&S failure at rate [p] (default 1.0) with bursts of [burst]
    (default 1). *)

val crash_at : ?lane:int -> int -> Lf_kernel.Fault_point.t -> rule
(** [crash_at k point]: crash at the lane's k-th access matching [point]. *)

val stall_at : ?lane:int -> ?spins:int -> int -> Lf_kernel.Fault_point.t -> rule
(** [stall_at k point]: stall ([spins] pause rounds, default 64) at the
    lane's k-th matching access. *)

(** {1 Execution} *)

type exec
(** A running plan: per-lane RNG streams, match counters and the injected
    trace.  Thread-safe (a mutex guards the decision state; the critical
    sections are effect-free, so this is also safe under the simulator). *)

val start : plan -> exec

val on_access : exec -> lane:int -> Lf_kernel.Fault_point.access -> action list
(** Decide which rules fire on this access, record them in the trace, and
    return their actions in rule order.  Called by [Fault_mem] before each
    forwarded access. *)

val note_cas_result : exec -> lane:int -> Lf_kernel.Mem_event.cas_kind -> bool -> unit
(** Report the outcome of a C&S attempt (spurious failures included) so
    [After_cas_ok] points track the lane's protocol position. *)

val trace : exec -> injected list
(** Injected faults so far, oldest first. *)

(** {1 Strings}

    Plan grammar (also printed by {!plan_to_string}):
    [spec := item (';' item)*], [item := 'seed=' INT | rule],
    [rule := action ':' point (':' key '=' value)*] — actions [cas-fail],
    [crash], [stall]; points from {!Lf_kernel.Fault_point.of_string};
    params [at=] (k-th match), [p=]/[burst=] (seeded rate), [n=] (stall
    pause rounds), [lane=] (restrict to one lane).  Example:
    ["seed=7;cas-fail:flag-cas:p=0.3:burst=4;crash:after-flag-cas:at=1:lane=0"]. *)

val action_name : action -> string
val injected_to_string : injected -> string
val plan_to_string : plan -> string
val plan_of_string : string -> (plan, string) result
