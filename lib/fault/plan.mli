(** Deterministic fault injection.

    A plan is a seeded schedule of faults threaded as an optional hook
    into the filesystem, scheduler, and wire layers.  Every decision is
    a pure function of [(seed, site, n)] where [n] is the per-site
    operation counter: the k-th operation at a given site always draws
    the same fault for a given seed, regardless of thread interleaving,
    so a failing run can be replayed by seed alone.

    Sites are short dotted names chosen by the instrumented call sites
    ("trace.save", "sched.job", "svc.wire", and the log store's
    "store.append", "store.rotate", "store.compact", "store.recover").  A plan with all probabilities zero never draws
    and costs nothing.

    Injections are counted per kind (see {!counts}) and, once
    {!attach}ed to a registry, under
    [small_fault_injected_total{kind=...}]. *)

type config = {
  seed : int;
  write_fail : float;   (** P(a file write raises an EIO-style [Sys_error]) *)
  torn_write : float;   (** P(a file write lands partially yet "succeeds") *)
  crash : float;        (** P(a worker thunk raises {!Injected_crash}) *)
  delay : float;        (** P(a worker thunk sleeps before running) *)
  delay_s : float;      (** mean-ish delay duration, seconds *)
  garbage : float;      (** P(a wire request line is garbled before parsing) *)
  net_delay : float;    (** P(a routed message is delayed before sending) *)
  net_delay_s : float;  (** mean-ish network delay, seconds *)
  net_drop : float;     (** P(a routed message is silently dropped) *)
  net_dup : float;      (** P(a routed message is delivered twice) *)
  net_reorder : float;  (** P(a batch is delivered out of order) *)
  partition : float;    (** P(a one-way partition opens toward a shard) *)
  partition_s : float;  (** mean-ish partition duration, seconds *)
  slow_shard : float;   (** P(a shard stalls — CPU-stall emulation) *)
  slow_s : float;       (** mean-ish stall duration, seconds *)
  crash_restart : float;(** P(a shard process is killed mid-job) *)
}

(** Seed 0, every probability 0, [delay_s = 0.01], [net_delay_s = 0.005],
    [partition_s = 0.2], [slow_s = 0.05]. *)
val default : config

type t

(** @raise Invalid_argument if a probability is outside [0,1], if a
    mutually-exclusive group's probabilities sum past 1
    ([write_fail + torn_write], [crash + delay],
    [net_delay + net_drop + net_dup + net_reorder + partition],
    [slow_shard + crash_restart]), or a duration is negative. *)
val create : config -> t

val config : t -> config

(** Raised by job thunks on an injected crash; carries the site. *)
exception Injected_crash of string

type write_fault =
  | Write_error            (** the write must raise [Sys_error] *)
  | Torn_write of float    (** a prefix of this fraction lands, then "succeeds" *)

type job_fault =
  | Crash
  | Delay of float         (** seconds to sleep before running *)

(** One draw per call; [None] means the operation proceeds normally. *)
val on_write : t -> site:string -> write_fault option

val on_job : t -> site:string -> job_fault option

(** [on_wire t ~site line] — [Some garbled] replaces the request line:
    truncated, byte-flipped, or padded past any sane request size. *)
val on_wire : t -> site:string -> string -> string option

type net_fault =
  | Net_delay of float     (** delay the message this many seconds *)
  | Net_drop               (** swallow the message entirely *)
  | Net_dup                (** deliver the message twice *)
  | Net_reorder            (** deliver the batch's lines in reverse order *)
  | Net_partition of float (** one-way partition toward the shard, seconds *)

type shard_fault =
  | Slow_shard of float    (** stall the shard this many seconds *)
  | Crash_restart          (** kill the shard process mid-job *)

(** One draw per routed send; sites are ["net.<sid>"]. *)
val on_net : t -> site:string -> net_fault option

(** One draw per dispatch; sites are ["proc.<sid>"]. *)
val on_shard : t -> site:string -> shard_fault option

(** Injections so far, by kind name
    (["write_error"; "torn_write"; "crash"; "delay"; "garbage";
      "net_delay"; "net_drop"; "net_dup"; "net_reorder"; "partition";
      "slow_shard"; "crash_restart"]). *)
val counts : t -> (string * int) list

val total : t -> int

(** Register [small_fault_injected_total{kind=...}] counters; later
    injections increment them.  Call before injecting. *)
val attach : t -> Obs.Registry.t -> unit

(** {1 Plan files}

    {v
    (fault-plan (seed 42) (write-fail 0.1) (torn-write 0.05)
                (crash 0.1) (delay 0.05 0.002) (garbage 0.02)
                (net-delay 0.1 0.005) (net-drop 0.05) (net-dup 0.05)
                (net-reorder 0.05) (partition 0.02 0.2)
                (slow-shard 0.05 0.05) (crash-restart 0.02))
    v} *)

val to_sexp : config -> Sexp.Datum.t

val config_of_sexp : Sexp.Datum.t -> (config, string) result

(** [parse s] reads the plan-file form from a string. *)
val parse : string -> (config, string) result

(** [load path] reads and validates a plan file; unreadable files and
    malformed plans come back as [Error] with a one-line message. *)
val load : string -> (t, string) result
