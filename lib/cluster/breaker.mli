(** Per-shard circuit breaker: the preemptive half of the overload
    ladder.

    Closed admits traffic and counts consecutive failures; at
    [failures] it opens.  Open refuses admission for [cooldown]
    seconds, after which {!allow} admits exactly one half-open trial —
    a success closes the breaker, a failure re-arms the cooldown.
    Queue depth is a soft signal: a closed breaker whose last noted
    depth exceeds [queue_limit] refuses admission without changing
    state.

    The breaker reads no clock: every call that depends on the time
    takes it as [~now], in seconds.  It holds no lock either: callers
    serialise access (the router calls it only from its core, under
    the router lock). *)

type t

type state = Closed | Half_open | Open

type config = {
  failures : int;       (** consecutive failures to open; 0 disables *)
  cooldown : float;     (** seconds open before a half-open trial *)
  rtt_limit : float;    (** a ping RTT above this counts as a failure;
                            [infinity] disables *)
  queue_limit : int;    (** soft depth cap while closed; 0 disables *)
}

(** [failures = 4], [cooldown = 1.0], [rtt_limit = infinity],
    [queue_limit = 0]. *)
val default : config

(** [on_open] fires on each closed-to-open transition (metrics hook). *)
val create : ?config:config -> ?on_open:(unit -> unit) -> unit -> t

(** Time-aware view: an open breaker past its cooldown reads
    [Half_open].  Does not consume the half-open trial. *)
val state : t -> now:float -> state

val state_name : state -> string

(** 0 closed, 1 half-open, 2 open — the gauge encoding. *)
val state_code : state -> int

(** May this shard receive new work?  In the half-open window this
    consumes the single trial slot. *)
val allow : t -> now:float -> bool

(** A success needs no time: it only closes a breaker whose trial was
    admitted. *)
val record_success : t -> unit

val record_failure : t -> now:float -> unit

(** [record_rtt t rtt] — success below [rtt_limit], failure above. *)
val record_rtt : t -> now:float -> float -> unit

val note_queue_depth : t -> int -> unit

(** Open immediately — the conviction path (a dead shard), bypassing
    the failure count. *)
val force_open : t -> now:float -> unit

(** Closed-to-open transitions so far. *)
val opens : t -> int
