(** The simulation-job service: requests are parsed into {!Job.t}s, keyed
    by (trace digest, job digest) against the {!Result_cache}, and on a
    miss run by a pool of worker domains; results are stored back and
    streamed as one JSON object per line.  Every decision is
    {!Service_core}'s; this module is its shell (domains, channels, the
    cache and the metrics).

    Wire protocol (newline-delimited, over stdin/stdout or a Unix
    socket):
    - a job s-expression (see {!Job}) — answered with one result line;
    - [(batch JOB JOB ...)] — all jobs are submitted concurrently,
      answered with one result line each, in request order;
    - [(stats)] — service counters (cache hits/misses, scheduler state);
    - [(ping)] — health probe, answered [{"status":"ok","pong":true}]
      without touching the scheduler, cache, or registry;
    - [(ping (id N))] — identified probe; the pong echoes ["id":N].
      Because replies keep request order, an identified pong doubles as
      a pipeline flush marker: receiving it proves every earlier request
      on the session was either answered or never arrived;
    - [(cancel N)] — cancels the job whose [(id N)] matches.
      Fire-and-forget: no reply line of its own; the cancelled job still
      answers ([status:"cancelled"]) in its original slot;
    - [(quit)] — ends the session (and a socket server's accept loop).

    Sessions are pipelined: each line is acted on as it is read, and
    replies are written in request order.  A job carrying [(deadline S)]
    must finish within [S] seconds of arrival {e including} queue wait,
    else it answers [status:"timeout"] ([S <= 0]: without queueing).

    Single-flight: a job whose result-cache key is already queued,
    running or being stored joins that run before any cache lookup, so
    duplicates execute once.  Every waiter gets the run's [result] bytes
    under its own [id], and a joined one answers ["cached":true].
    Cancelling a waiter, or its deadline passing, answers that waiter
    alone; the run stops only when no waiter is left.

    Result lines:
    {v
    {"status":"ok","job":"simulate slang ...","cached":false,
     "elapsed":1.23,"result":{...}}
    {"status":"error"|"timeout"|"cancelled"|"shed"|"overloaded",...}
    v}

    Under overload the service climbs a ladder before failing work: a
    full queue first sheds the lowest-priority queued job (answered
    ["shed"]) to make room for a higher-priority submission; when
    nothing lower-priority remains, the new request itself is answered
    ["overloaded"].  Oversized or unparseable request lines come back as
    one typed error line — nothing a client sends can raise out of the
    serving loop. *)

type t

type response = Service_core.response = {
  job : Job.t;
  cached : bool;
  elapsed : float;            (** seconds; ~0 on a cache hit *)
  outcome : (Exec.output, Service_core.failure) result;
}

(** [store_dir] persists results in the crash-consistent log-structured
    store (see {!Result_cache}); omit it for a memory-only cache.

    [fault] threads a {!Fault.Plan} through the whole stack: store
    writes (sites ["store.*"]), worker thunks (["sched.job"]), and
    request lines (["svc.wire"]); its injection counters are registered
    in this service's registry.  [retries] (default 0) re-runs a raising
    job thunk with exponential backoff.  [max_request_bytes] (default
    1 MiB) bounds one request line; longer lines are answered with an
    error instead of being parsed.

    [shard_id] names this service as a cluster shard: every reply line
    (results, errors, pong, stats) then carries a ["shard"] field, so a
    router or load generator can attribute responses without parsing
    result bodies.

    Every service owns an {!Obs.Registry.t}: runs ([small_sched_*]),
    result cache ([small_cache_*]), requests ([small_svc_*]) and the
    process-wide trace form memo ([small_trace_form_*], see
    {!Trace.Preprocess.Memo}; hits and misses counted from this
    service's start).  With
    [metrics_file], the exposition is rewritten atomically after every
    handled request line and at shutdown, for an external scraper. *)
val create :
  ?metrics_file:string -> ?fault:Fault.Plan.t ->
  ?shard_id:string -> ?retries:int -> ?max_request_bytes:int ->
  ?store_dir:string -> ?jitter_seed:int ->
  workers:int -> queue_capacity:int -> unit -> t

(** [submit], then its join.  [Error `Overloaded]: the queue was full
    and shedding could not make room. *)
val run_job : t -> Job.t -> (response, [ `Overloaded | `Shutdown ]) result

(** Returns a join: a hit resolves at once, a miss when its run ends. *)
val submit : t -> Job.t -> (unit -> response, [ `Overloaded | `Shutdown ]) result

(** The reply line for [r], as a session writes it. *)
val response_json : t -> response -> Json.t

(** [handle_line t line] — one request line to response lines (a batch
    yields several).  Never raises: malformed or oversized input becomes
    an error line. *)
val handle_line : t -> string -> string list

(** Serves until EOF or [(quit)]; returns [true] iff [(quit)] was seen.
    Responses are flushed per line. *)
val serve_channels : t -> in_channel -> out_channel -> bool

(** [bind_socket_replacing sock path] binds [sock] under a temp name and
    renames it over [path]: the path flips atomically from any stale
    socket a killed server left behind to the live one, so a restarting
    shard never leaves a window where the path is missing or two
    endpoints answer.  A live listener (the probe connect succeeds) or a
    non-socket file at [path] raises [Failure] and is left untouched; a
    missing file is fine. *)
val bind_socket_replacing : Unix.file_descr -> string -> unit

(** Binds a Unix domain socket at [path] (atomically replacing a stale
    file, see {!bind_socket_replacing}) and serves connections
    sequentially until a client sends [(quit)]. *)
val serve_socket : t -> path:string -> unit

val cache : t -> Result_cache.t
val scheduler_stats : t -> Service_core.stats

(** The service's metric registry (shared with its cache). *)
val metrics : t -> Obs.Registry.t

(** Service counters plus the full registry snapshot under ["metrics"]
    (see {!Obs_json}); this is the [(stats)] response body. *)
val stats_json : t -> Json.t

(** Drains the queue and joins the worker pool. *)
val shutdown : t -> unit
