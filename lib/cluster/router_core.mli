(** Every routing decision, as one deterministic state machine: the List
    Processor half of the router (SMALL §4), whose I/O shell is
    {!Router}.

    {!step} takes the state and one {!input} and returns the {!action}s
    the shell must perform.  The core reads no clock — every input that
    needs the time carries [now], in seconds — does no I/O, takes no
    lock and starts no domain; the shell calls it under its one router
    lock and performs the actions after releasing it.  [step] mutates
    the state in place, and from the same state and input it returns
    the same actions, so a test can drive it in one thread with a
    simulated clock and network and replay any run from its seed.

    It decides placement (cache-aware, hash or uniform), failover,
    overload drain, stealing, micro-batching, hedging, loss recovery by
    sync ping, deadline expiry, client cancellation and revival, and it
    owns the per-shard circuit breakers and the [small_router_*] and
    [small_breaker_*] metric families.

    Invariants, checked after every step by the simulation battery in
    [test/test_resilience.ml]:
    - every unanswered job is queued at, or in flight at, a live shard,
      or is answered by the step's own actions;
    - each item is answered exactly once, and an answered item is never
      sent again;
    - a shard's in-flight count equals the items sent to it that it has
      not yet answered and that were not found lost or failed over;
    - every owner-key value names one of the router's shards, and after
      an [ok] reply wins it names the shard that replied;
    - no item is answered [shard_down] while a live shard still runs a
      copy of it: a hedged item whose hedge target dies, or whose
      resends run out, waits for its first shard's reply. *)

type placement = Cache_aware | Hash_only | Uniform

type config = {
  placement : placement;
  batch_max : int;          (** jobs per micro-batch *)
  steal_min : int;          (** victim queue length that allows a steal; 0 disables *)
  hedge_quantile : float;   (** 0 disables hedging *)
  hedge_floor : float;      (** never hedge faster than this, seconds *)
  stuck_after : float;      (** silence before a sync ping probes a batch *)
  revive : bool;            (** ask the shell to re-adopt down shards *)
  breaker : Breaker.config;
}

(** One routed request or health probe. *)
type item = private {
  id : int;                     (** the router's wire id *)
  request : string;             (** the client's line; a probe's wire line *)
  client_id : int option;       (** the client's own [(id N)] *)
  job : Server.Job.t option;    (** [None] for a health probe *)
  key : string option;          (** placement key *)
  deadline : float;             (** absolute; [infinity] if none *)
  mutable tried : string list;  (** shards it was sent to *)
  mutable at : string list;     (** shards holding it in flight *)
  mutable sent_at : float;
  mutable hedged : bool;
  mutable resends : int;
  mutable answered : bool;
}

type shard = private {
  sid : string;
  mutable alive : bool;
  q : item Queue.t;             (** placed, not yet sent *)
  mutable pending : item list;  (** the batch in flight, oldest first *)
  mutable batch_seq : int;
  mutable batch_started : float;
  mutable sync_sent : float;
  mutable down_at : float;
  mutable ping_ms : float;      (** last probe round-trip *)
  breaker : Breaker.t;
  routed : Obs.Metric.Counter.t;
  hits : Obs.Metric.Counter.t;
  steals : Obs.Metric.Counter.t;
  downs : Obs.Metric.Counter.t;
  lat : Obs.Metric.Histogram.t;
  b_state : Obs.Metric.Gauge.t;
  up_g : Obs.Metric.Gauge.t;
}

type action =
  | Send of { sid : string; items : item list }
      (** write this batch to the shard (see {!wire_line}), then feed
          its replies back as [Shard_line] *)
  | Answer of { id : int; line : string }
      (** the item's one reply, in the client's own bytes *)
  | Cancel of { sid : string; id : int }   (** write [(cancel id)] *)
  | Sync_ping of { sid : string; id : int }  (** write [(ping (id id))] *)
  | Revive of string
      (** try to reconnect the down shard; on success feed [Revived] *)

type input =
  | Submit of { id : int; request : string; job : Server.Job.t; key : string option;
                now : float }
      (** a client job under a {!fresh_id}; its deadline and client id
          are the job's own *)
  | Probe of { id : int; sid : string }  (** a health ping on the shard's queue *)
  | Idle of { sid : string; now : float }
      (** the shard's dispatcher has no batch in flight *)
  | Shard_line of { sid : string; header : Reply.header; line : string; now : float }
      (** one line from the shard: a job reply or a sync pong, told apart
          by id *)
  | Down of { sid : string; now : float }
      (** the shard's connection failed, or the health monitor convicted it *)
  | Tick of float                        (** the pacer's periodic sweep *)
  | Cancel_client of int                 (** a client's [(cancel N)] *)
  | Revived of string                    (** the shell reconnected the shard *)

type t

(** [create ?vnodes ~registry cfg sids] registers the metric families in
    [registry]; every shard starts alive. *)
val create : ?vnodes:int -> registry:Obs.Registry.t -> config -> string list -> t

(** A new wire id (jobs, probes and sync pings share one sequence). *)
val fresh_id : t -> int

val step : t -> input -> action list

(** Whether a step since the last call queued work or changed which
    shards are alive: idle dispatchers should step [Idle] again. *)
val take_kick : t -> bool

(** The line that carries [it] to a shard at time [now]. *)
val wire_line : item -> now:float -> string

(** A router-made JSON reply: [{"id":N,"status":S,"error":E,"request":R}],
    the id and request fields only when given. *)
val typed_line : ?client_id:int -> ?request:string -> string -> string -> string

(** {1 Views} *)

val shards : t -> shard array
val find : t -> string -> shard option

(** The shard has a batch in flight. *)
val awaiting : t -> string -> bool

(** The shard whose result cache holds [key], as far as the router knows. *)
val owner : t -> string -> string option

val owner_count : t -> int

(** Jobs not yet answered. *)
val unanswered : t -> item list

(** [small_router_placement_total], by kind. *)
val placement_counts : t -> (string * int) list

(** Hedges, hedge wins, router-side expiries, cancels, resends and
    revivals, in that order. *)
val resilience : t -> (string * int) list
