(** Trace-driven simulator of the SMALL architecture (§5.2.1).

    The simulator monitors the LPT and the EP's control-cum-binding stack
    over the function calls and list primitives of a preprocessed trace.
    List identity in the trace is only statistical, so arguments are
    selected exactly as in the thesis: a chained argument is the previous
    primitive's result (on top of the stack); otherwise an argument of the
    current function (probability [arg_prob]), a local ([loc_prob]), or a
    non-local (the remainder) is drawn from the simulated stack, and with
    probability [read_prob] the selected variable is assumed to have been
    freshly read in.  Results are bound to a random stack variable with
    probability [bind_prob], else pushed.  Function calls push one bound
    item per argument plus a random number of locals; returns pop the
    frame with the matching reference-count decrements.

    New list sizes are drawn from the trace's own n/p distribution, and a
    fully associative LRU data cache can be run in parallel over
    heap-model addresses for the §5.2.5 comparison. *)

type cache_config = {
  cache_lines : int;
  cache_line_size : int;       (** in two-pointer cells *)
}

type config = {
  table_size : int;
  policy : Lpt.policy;
  arg_prob : float;
  loc_prob : float;
  bind_prob : float;
  read_prob : float;
  seed : int;
  split_counts : bool;
  eager_decrement : bool;
  cache : cache_config option;
}

(** The thesis's control settings: ArgProb 0.6, LocProb 0.3, BindProb and
    ReadProb 0.01, Compress-One, 2048 entries, split counts off. *)
val default_config : config

(** A canonical, version-tagged textual form of every config field
    (floats in lossless [%h] notation).  Two configs fingerprint equally
    iff a run over the same trace is guaranteed to produce the same
    stats. *)
val config_fingerprint : config -> string

(** MD5 hex of {!config_fingerprint} — the config half of the server's
    content-addressed result-cache key. *)
val config_digest : config -> string

(** Whether [c]'s fingerprint is currently memoized (test hook for the
    memo's second-chance eviction; not meaningful to ordinary callers). *)
val fingerprint_memoized : config -> bool

type stats = {
  events : int;              (** primitive events simulated *)
  true_overflow : bool;      (** overflow mode was entered at least once *)
  overflow_events : int;     (** primitive events served in (degraded)
                                 overflow mode, with the LPT bypassed *)
  peak_lpt : int;
  avg_lpt : float;
  lpt : Lpt.counters;
  heap : Heap_model.counters;
  cache_hits : int;
  cache_misses : int;
  cache_accesses : int;
}

(** {2 Packed traces}

    The hot loop consumes a {e packed} trace: a view of the flat form
    {!Trace.Preprocess.t} — its event codes and its (n, p) table, from
    which fresh read-ins draw their sizes.  Packing copies nothing and
    scans nothing; replaying a packed trace allocates nothing at steady
    state. *)

type packed

(** Number of events in the packed trace. *)
val packed_events : packed -> int

(** [pack trace] is the kernel's view of a preprocessed trace. *)
val pack : Trace.Preprocess.t -> packed

(** [run_packed ?metrics config packed] replays a packed trace through
    the allocation-free flat kernel.  Stats are byte-identical to the
    boxed reference kernel's over the same trace (the oracle battery in
    [test/]).
    @raise Invalid_argument on a primitive with more than 24 arguments
    (real traces have at most 3). *)
val run_packed : ?metrics:Obs.Registry.t -> config -> packed -> stats

(** [run ?metrics config trace] simulates the whole trace — equivalent
    to [run_packed config (pack trace)].  With [metrics] attached, the
    run folds its activity into the registry ([small_sim_*] and
    [small_lpt_*] series, including a per-event occupancy histogram);
    the registry is write-only for the simulator, so the returned stats
    are bit-identical with and without it, and a detached run pays only
    one option test per event. *)
val run : ?metrics:Obs.Registry.t -> config -> Trace.Preprocess.t -> stats

val lpt_hit_rate : stats -> float
val cache_hit_rate : stats -> float

(** [min_table_size ?jobs ?metrics config packed] searches for the knee
    of Figure 5.1: the smallest table size (within the probe sequence) at
    which no overflow of any kind occurs, by doubling then bisecting.
    Returns the size and the stats of the run at that size.  Every probe
    replays the one packed trace.

    With [jobs] > 1 the probe simulations run on a [Util.Parallel] pool —
    the doubling phase probes whole batches of sizes at once and the
    bisection phase speculatively evaluates the next levels of its
    decision tree — while following the same decision sequence as the
    sequential search, so the result is identical for every [jobs].

    [metrics] is shared by every probe run (concurrent probes record
    into it at once); the search result does not depend on it. *)
val min_table_size :
  ?jobs:int -> ?metrics:Obs.Registry.t -> config -> packed -> int * stats
