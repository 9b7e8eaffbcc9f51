(** Every service decision, as one deterministic state machine whose
    shell is {!Service} (SMALL §4: the unit that owns the table decides).
    {!step} reads no clock — inputs that need the time carry [now] — does
    no I/O, takes no lock and starts no domain, so a test can drive it in
    one thread and replay any run from its seed.

    It owns the FIFO run queue ([capacity] queued, [workers] in flight),
    the overload ladder, deadlines ([(deadline S)] from arrival,
    [(timeout S)] from the run's first start), retries (a failed attempt
    keeps its slot for a seeded backoff, then requeues at the tail),
    wire-id cancellation, single-flight (see {!Service}) and every
    session's reply order.  The last waiter to leave a run ends it; a
    running run is stopped, and that waiter answered when it lets go.

    Invariants, checked after every step by the simulation battery in
    [test/test_server.ml]: each request line gets exactly one reply, in
    session order; no key has two runs queued or in flight; a session
    never owes more than {!pipeline_depth} replies; a cancelled, shed or
    expired waiter never receives [ok] bytes; the outcome counters sum to
    [completed]. *)

type failure =
  | Exec_failed of string     (** the job raised (after any retries) *)
  | Timed_out
  | Cancelled
  | Shed                      (** evicted from the queue under overload *)
  | Source_error of string    (** the trace source could not be read *)

type response = {
  job : Job.t;
  cached : bool;
  elapsed : float;            (** seconds; ~0 on a cache hit *)
  outcome : (Exec.output, failure) result;
}

type config = {
  workers : int;              (** runs in flight at once, backoffs included *)
  capacity : int;             (** queued runs *)
  retries : int;              (** re-runs allowed after a raising attempt *)
  backoff : float;            (** base retry delay, seconds *)
  jitter_seed : int option;   (** seeded decorrelated jitter for the backoff *)
  shard_id : string option;   (** announced in every reply line *)
}

(** A job's source as the shell hashed it: its cache key and the file
    stamp taken before hashing, or why it was not hashed. *)
type source =
  | Keyed of { key : string; expect : Trace.Io.stamp option }
  | Unreadable of string
  | Spent                     (** it arrived with [deadline <= 0] *)

(** One element of a request line: a job, or a ready reply line. *)
type part = Job of Job.t * source | Line of string

type request = Parts of part list | Stats   (** [(stats)]: see {!Write_stats} *)

(** One attempt at a run; [queued_at] is when it joined the queue. *)
type attempt = { key : string; job : Job.t; expect : Trace.Io.stamp option; queued_at : float }

type finish =
  | Done of Exec.output
  | Changed of string         (** the trace file changed after it was hashed *)
  | Raised of string
  | Stopped                   (** after a {!Stop} *)

type waiter                       (** a job waiting for its answer *)

type reply = (response, [ `Overloaded | `Shutdown ]) result

type input =
  | Request of { session : int; request : request; now : float }
  | Looked_up of { waiter : waiter; stored : string option; now : float }
      (** the cache's entry, decoded here; kept while the cache returns
          the same string *)
  | Finished of { key : string; finish : finish; now : float }
  | Stored of { key : string; now : float }   (** the run's result is in the cache *)
  | Cancel of { id : int; now : float }   (** [(cancel N)] *)
  | Tick of float
  | Shutdown                  (** refuse new runs from now on *)

type action =
  | Lookup of { waiter : waiter; key : string }   (** answer with {!Looked_up} *)
  | Run of attempt            (** execute on a worker, then answer with {!Finished} *)
  | Stop of string            (** make the key's running attempt stop *)
  | Store of { key : string; out : Exec.output }   (** then answer {!Stored} *)
  | Write of { session : int; lines : string list; replies : reply list }
      (** the session's next owed line(s), and its jobs' answers *)
  | Write_stats of int        (** the next owed reply is a [(stats)] line *)

(** A copy: [queued] and [running] (backoffs included) are current. *)
type stats = {
  mutable queued : int;
  mutable running : int;
  mutable completed : int;    (** runs settled, whatever the outcome *)
  mutable rejected : int;     (** runs refused by a full queue (before any shed) *)
  mutable cancelled : int;
  mutable timed_out : int;
  mutable shed : int;
  mutable retried : int;      (** attempts re-run after a failure *)
  mutable done_ : int;        (** runs that finished, a changed file included *)
  mutable failed : int;
  mutable executed : int;     (** runs whose result was stored *)
  mutable cancels : int;      (** [(cancel N)] that found a waiter *)
}

type t

val create : config -> t
val step : t -> input -> action list
val stats : t -> stats

(** Replies a session may owe before its reader waits. *)
val pipeline_depth : int

(** A session's request lines not yet written by {!Write}. *)
val owed : t -> int -> int

val drained : t -> bool           (** shut down, nothing queued or running *)

val shard_field : t -> (string * Json.t) list
val status : response -> string   (** a reply's ["status"] *)

(** [result], when given, is the output's already-rendered JSON. *)
val response_json : ?result:string -> t -> response -> Json.t

val error_line : t -> string -> string
val pong_line : ?id:int -> t -> string
