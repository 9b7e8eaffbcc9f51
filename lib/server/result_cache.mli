(** Content-addressed result store.

    Keys are MD5 hex digests of [(trace digest, job digest)]; values are
    the serialised job outputs (one s-expression line).  An in-memory
    table fronts an optional disk backend, so results survive across
    processes and repeated sweeps hit the cache instead of
    re-simulating.  All operations are thread-safe.

    The disk backend ([~store_dir]) is the crash-consistent segment log
    of {!Store.Log}: group-committed appends, recovery replay on open,
    copying compaction.  A value span that fails its hash on read is
    dropped by the store and reported as a miss, so a torn write or
    flipped byte is recomputed, never served.

    A failed disk write keeps the in-memory entry, counts
    [small_cache_write_errors_total], raises the [small_cache_degraded]
    gauge to 1 and prints a one-line warning (once) — a degraded node
    would otherwise be indistinguishable from a cold one at the next
    process start. *)

type t

(** [create ?metrics ?fault ?store_dir ()] — with [store_dir] results
    persist in a log store there (created on demand, with
    {!Store.Log.default_config}); without it the cache is memory-only.
    With [metrics], the cache keeps [small_cache_*] counters in the
    registry and the log store its [small_store_*] families.  [fault]
    injects failures at the log store's ["store.*"] sites.
    @raise Sys_error if opening the log store fails. *)
val create :
  ?metrics:Obs.Registry.t -> ?fault:Fault.Plan.t -> ?store_dir:string -> unit -> t

val key : trace_digest:string -> job_digest:string -> string

(** [find t key] — [None] counts a miss; hits record whether they came
    from memory or disk.  Corrupt disk entries are dropped by the log
    store (counted in its [corrupt_reads]) and reported as misses. *)
val find : t -> string -> string option

val store : t -> string -> string -> unit

type stats = {
  hits : int;                  (** memory + disk *)
  disk_hits : int;             (** subset of [hits] loaded from disk *)
  misses : int;
  stores : int;
  write_errors : int;          (** failed disk writes (memory kept) *)
  degraded : bool;             (** any disk write has failed *)
}

val stats : t -> stats

(** The log store's statistics, when created with [~store_dir]. *)
val log_stats : t -> Store.Log.stats option
