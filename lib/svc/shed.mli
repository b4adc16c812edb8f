(** Load shedding: queue-depth- and deadline-aware admission control.

    The cheapest place to handle overload is the front door.  {!admit}
    rejects a request when the queue is already past [max_queue]
    (bounding memory and tail latency), or when the request is
    {e doomed}: its deadline cannot be met even optimistically, judged
    against an EWMA estimate of recent service time scaled by the work
    queued ahead of it.  Executing an already-expired operation is the
    purest waste a service can produce — it burns capacity to compute
    an answer nobody is waiting for — so doomed work is refused while
    refusal is still cheap.

    A {!t} is one mutable estimate: {!observe} folds completed-call
    latencies into it in place, allocating nothing, under the caller's
    lock ({!Svc}'s mutex); ticks come from the caller's clock. *)

type config = {
  max_queue : int;  (** admit while queue_depth <= this; >= 0 *)
  est_init : int;  (** starting service-time estimate, ticks; > 0 *)
  workers : int;  (** drain parallelism assumed by the doomed test; >= 1 *)
}

val config : ?max_queue:int -> ?est_init:int -> ?workers:int -> unit -> config
(** Defaults: queue cap 128, initial estimate 1000 ticks, 1 worker. *)

type t

val create : config -> t

val estimate : t -> int
(** Current EWMA service-time estimate, ticks. *)

val observe : t -> latency:int -> unit
(** Fold one completed call's latency into the estimate (alpha = 1/8). *)

val admit :
  t ->
  now:int ->
  deadline:Deadline.t ->
  queue_depth:int ->
  [ `Admit | `Reject_queue | `Reject_doomed ]
(** [`Reject_queue] when [queue_depth > max_queue]; [`Reject_doomed]
    when the deadline leaves less than
    [estimate * (queue_depth / workers + 1)] ticks.  A request with no
    deadline can only be queue-rejected. *)
