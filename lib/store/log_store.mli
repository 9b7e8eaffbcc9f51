(** A crash-consistent log-structured key/value store.

    Writes group-commit into an append-only segment log
    ([<dir>/seg-NNNNNNNN.smsg]): {!put}/{!delete} buffer operations,
    {!commit} appends them as one length-prefixed record carrying an
    FNV-1a64 checksum of its payload (the framing discipline of
    [Trace.Binary] v2) and is the acknowledgement point — when it
    returns, the group is on disk and survives [kill -9].  An in-memory
    indirection table maps key → (segment, offset, length, value hash),
    so {!mem} and {!get} are O(1) hash lookups; {!get} reads the value
    bytes back from the segment and re-verifies their hash, so a
    flipped byte is a miss, never a wrong answer.

    {b Recovery replay.}  {!open_} rebuilds the table by replaying the
    segments in id order and truncates at the first torn or corrupt
    record: everything before the tear — every acknowledged commit — is
    recovered, the damaged tail (an unacknowledged group) is dropped,
    and the repair (file truncation, removal of later segments) happens
    only after the full scan, so a crash {e during} recovery loses
    nothing.  Recovery is O(live entries + log bytes scanned), with no
    per-entry file opens.

    {b Compaction.}  When the dead-byte ratio crosses the configured
    threshold, compaction copies the live entries into a fresh segment
    headed by an epoch marker (all older segments are superseded),
    verifies the copy by reading it back, and only then atomically
    retires the old segments — a torn compaction write aborts and keeps
    the old log.  A crash between the rename and the unlinks replays
    old segments first and the epoch-marked copy after, which yields
    the same state (no resurrected deletes: replay restarts at the
    marker).

    {b Eviction} bounds the footprint: [max_bytes] evicts
    oldest-written entries (as durable delete records), [ttl] expires
    entries lazily on read and on recovery.

    {b Failure.}  A failed or torn append raises [Sys_error], discards
    the group (it was never acknowledged) and marks the store failed —
    further commits raise, reads keep serving the committed state, and
    the next {!open_} repairs the log.  Faults inject at sites
    ["store.append"], ["store.rotate"], ["store.compact"] and
    ["store.recover"].

    All operations are thread-safe (one lock). *)

type t

type config = {
  segment_bytes : int;     (** rotate the active segment at this size *)
  compact_ratio : float;   (** compact when dead/total crosses this *)
  max_bytes : int option;  (** evict oldest entries above this many live bytes *)
  ttl : float option;      (** expire entries older than this many seconds *)
}

(** 4 MiB segments, compaction at 50% garbage, no size/TTL bound. *)
val default_config : config

(** [open_ ?metrics ?fault ?config ?clock ~dir ()] creates [dir] on
    demand and replays any existing log (see above).  [clock] (default
    [Unix.gettimeofday]) stamps entries and drives TTL expiry — tests
    inject a fake one.  [metrics] registers the [small_store_*]
    families.
    @raise Sys_error if the directory or a segment cannot be read, or
    an injected ["store.recover"] fault fires (nothing is mutated). *)
val open_ :
  ?metrics:Obs.Registry.t -> ?fault:Fault.Plan.t -> ?config:config ->
  ?clock:(unit -> float) -> dir:string -> unit -> t

(** Buffer a write into the pending group.  Visible to {!get}/{!mem}
    immediately (read-your-writes); durable only once {!commit}
    returns.  @raise Sys_error if the store is failed or closed. *)
val put : t -> string -> string -> unit

(** Buffer a deletion into the pending group. *)
val delete : t -> string -> unit

(** Append the pending group as one checksummed record and flush it to
    the OS — the acknowledgement point.  May rotate the segment, evict
    over-budget entries and trigger compaction afterwards.  On failure
    (disk error, injected fault) the pending group is discarded and
    [Sys_error] raises: an unacknowledged group is never half-applied.
    A no-op when nothing is pending. *)
val commit : t -> unit

(** [set t k v] = [put] + [commit]: one acknowledged single-op group. *)
val set : t -> string -> string -> unit

(** O(1) index lookup, then one read of the value span, re-verified
    against the stored hash: a corrupt span or an expired entry is
    dropped and answered [None]. *)
val get : t -> string -> string option

(** O(1); does not touch the disk (cheap enough for placement lookups). *)
val mem : t -> string -> bool

val entries : t -> int
val keys : t -> string list

(** Copy the live entries into a fresh epoch-marked segment and retire
    every older one, regardless of the garbage ratio.  A no-op on a
    failed store; an injected or real write failure keeps the old log. *)
val compact : t -> unit

type stats = {
  segments : int;
  entries : int;
  live_bytes : int;          (** encoded op bytes of live entries *)
  dead_bytes : int;          (** superseded/deleted op bytes awaiting compaction *)
  appends : int;             (** committed groups *)
  recovered_records : int;   (** groups replayed by recovery *)
  truncated_records : int;   (** torn/corrupt records dropped by recovery *)
  corrupt_reads : int;       (** value spans that failed their hash on {!get}
                                 or compaction ([small_store_corrupt_reads_total]) *)
  compactions : int;
  evictions : int;           (** size evictions + TTL expiries *)
  write_errors : int;
}

val stats : t -> stats

(** Whether a failed append has wedged the store (reads still work). *)
val failed : t -> bool

(** Encoded size of a put/delete operation — the unit of the
    live/dead-byte accounting ([live_bytes + dead_bytes] is exactly the
    op bytes appended and not yet compacted away). *)
val encoded_put_bytes : key:string -> value:string -> int

val encoded_delete_bytes : key:string -> int

(** Commits pending writes (best-effort) and closes every segment fd.
    Further operations raise [Sys_error]. *)
val close : t -> unit
