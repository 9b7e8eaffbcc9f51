(** The cluster front: consistent-hash, cache-aware routing of job
    requests onto N backend smalld shards speaking the newline-sexp wire
    protocol.

    Each shard is a connection — a spawned [smallsim serve --stdio]
    child, a Unix-socket server, or a pre-connected channel pair (tests,
    benches) — owned by one dispatcher domain.  Requests are enqueued
    per shard; a dispatcher drains its queue in micro-batches (one
    [(batch ...)] line exploits the shard's worker pool), so queued work
    is visible and an idle shard's dispatcher steals from the longest
    queue.

    Placement, per job:
    - {b cache-aware} (default): the shard that last produced this key's
      result (so a repeat config lands on the shard whose cache holds
      it), falling back on ring ownership;
    - {b hash}: ring ownership only;
    - {b uniform}: round-robin — the locality-blind baseline the load
      harness measures against.

    The overload ladder extends PR 4's: a shard answering [overloaded]
    has the request drained to the next healthy shard in ring preference
    order; a dead shard (connection error, health-check verdict) has its
    queue failed over likewise; only when no healthy shard remains does
    the client see a typed [shard_down] reply.  All replies otherwise
    pass through byte-for-byte, so a cluster run is byte-identical to a
    single-process one (modulo ["shard"]/["elapsed"] fields).

    Resilience layer (this module's second half):
    - {b deadline propagation}: a job's [(deadline S)] budget becomes an
      absolute deadline at admission; each hop re-serialises the job
      with the remaining budget, the shard's scheduler enforces its
      share, and the router's pacer answers the typed timeout and sends
      a cross-wire [(cancel N)] so the shard worker is freed;
    - {b hedged execution}: an in-flight job outliving twice its shard's
      latency quantile is re-issued to the next ring owner; the first
      answer wins, the loser is cancelled, and the cache-owner table is
      updated to the winner (hinted handoff);
    - {b circuit breakers}: per-shard {!Breaker}s fed by reply
      outcomes, probe RTTs and queue depth gate placement (failing open
      when every breaker refuses), with [small_breaker_*] metrics;
    - {b loss detection}: every routed line carries a wire id; a silent
      shard is sync-pinged, and the ordered reply stream turns the pong
      into proof that still-pending requests were dropped — they are
      re-sent a bounded number of times;
    - {b chaos}: with a {!Fault.Plan.t}, sends draw network faults
      (delay/drop/dup/reorder/one-way partition) at sites [net.<sid>]
      and process faults (slow-shard stall, crash-restart) at
      [proc.<sid>];
    - {b revival}: when enabled, crash-restarted spawn/socket shards are
      re-adopted by a pacer sweep, their breakers open until proven. *)

type t

type endpoint =
  | Spawn of string array
      (** argv of a child process serving the wire protocol on stdio;
          argv.(0) is the executable path *)
  | Socket of string                         (** Unix-socket server path *)
  | Channels of in_channel * out_channel     (** pre-connected (tests) *)

type placement = Cache_aware | Hash_only | Uniform

(** [create ?vnodes ?batch_max ?steal_min ?placement ?metrics ~shards ()]
    connects (lazily) to the named shards and spawns one dispatcher
    domain per shard plus one pacer domain.  [batch_max] (default 16)
    bounds a micro-batch; [steal_min] (default 2) is the queue length at
    which an idle dispatcher steals (half the victim's queue, preferring
    jobs the victim holds no cached result for); [0] disables stealing.
    [metrics] receives the [small_router_*]/[small_breaker_*] families.

    Resilience knobs: [fault] injects seeded network/process chaos on
    the shard wires; [hedge_quantile] (default 0 = off) is the per-shard
    latency quantile whose doubling triggers a hedge, floored at
    [hedge_floor] seconds (default 0.01); [breaker] configures the
    per-shard circuit breakers; [stuck_after] (default 1.0) is the
    silence, in seconds, after which an in-flight batch is sync-pinged
    for loss detection; [revive] (default false) re-adopts
    crash-restarted spawn/socket shards; [metrics_file] makes the pacer
    write the Prometheus exposition there (atomic rename), twice a
    second and at shutdown.

    SIGPIPE is set to ignore (a dead shard must surface as an error, not
    kill the router). *)
val create :
  ?vnodes:int -> ?batch_max:int -> ?steal_min:int -> ?placement:placement ->
  ?metrics:Obs.Registry.t -> ?fault:Fault.Plan.t -> ?hedge_quantile:float ->
  ?hedge_floor:float -> ?breaker:Breaker.config -> ?stuck_after:float ->
  ?revive:bool -> ?metrics_file:string -> shards:(string * endpoint) list ->
  unit -> t

(** [submit_line t line] routes one job request line; the returned join
    blocks until the reply line.  Malformed jobs are answered
    immediately; an unroutable job (no healthy shard) yields the typed
    [shard_down] line. *)
val submit_line : t -> string -> unit -> string

(** One request line to reply lines, mirroring {!Server.Service.handle_line}:
    jobs route to shards, [(batch ...)] fans out and preserves order,
    [(stats)] answers with router stats, [(ping)]/[(ping (id N))] with a
    pong.  [(cancel N)] answers every in-flight job the client tagged
    [(id N)] with the typed cancelled reply (in its own slot — no reply
    line for the cancel itself) and forwards cross-wire cancels to the
    shards still running copies. *)
val handle_line : t -> string -> string list

(** [cancel_client t n] — the [(cancel n)] control path, directly. *)
val cancel_client : t -> int -> unit

(** Router-level stats: placement counts and per-shard
    alive/routed/hits/steals/queue depth. *)
val stats_json : t -> Server.Json.t

val shard_ids : t -> string list
val alive_ids : t -> string list

(** Spawned children still considered alive, as [(shard id, pid)]. *)
val spawned_pids : t -> (string * int) list

(** No job queued or in flight at the shard. *)
val is_idle : t -> string -> bool

(** [probe t sid] enqueues an identified [(ping (id N))] on the shard's
    wire (FIFO with jobs); the returned thunk polls the reply without
    blocking.  [None] if the shard is down.  The pong's round-trip feeds
    the shard's circuit breaker and the [ping_ms] field of [(stats)]. *)
val probe : t -> string -> (unit -> string option) option

(** Declares a shard dead: closes its connection (waking a blocked
    dispatcher), fails its health probes, and reroutes its queued jobs
    to the next healthy shard (typed [shard_down] replies when none
    remains). *)
val mark_down : t -> string -> unit

(** [kill t sid] — SIGKILL a spawned shard (tests, fault drills), then
    {!mark_down} it. *)
val kill : t -> string -> unit

(** [revive t sid] — re-adopt a down shard now (the pacer does this
    periodically when [revive:true]): joins the dead dispatcher, probes
    socket endpoints for reachability, then spawns a fresh dispatcher.
    [false] if the shard is alive, unreachable, a [Channels] endpoint,
    or the router is stopping. *)
val revive : t -> string -> bool

(** Serves the wire protocol until EOF or [(quit)]; [true] iff quit. *)
val serve_channels : t -> in_channel -> out_channel -> bool

(** Binds [path] (stale sockets replaced, live servers and other files
    refused — see {!Server.Service.bind_socket_replacing}) and serves {e concurrent}
    sessions, one domain each, until some client sends [(quit)]. *)
val serve_socket : t -> path:string -> unit

(** Drains every queue, politely quits spawned/adopted shards, reaps
    children, joins the dispatchers.  Idempotent. *)
val shutdown : t -> unit
