(** Job execution: loads and digests the trace named by a job's source,
    runs the measurement, and converts outputs between their typed form,
    the cacheable s-expression form, and the wire JSON.

    The sexp form is the cache's value format and round-trips exactly
    ([output_of_sexp (output_to_sexp o) = Ok o] — floats are stored in
    lossless [%h] notation), so a cache hit reconstructs the same typed
    result a fresh run would produce. *)

type output =
  | Stats_out of {
      events : int;
      primitives : int;
      functions : int;
      max_depth : int;
      distinct_lists : int;                   (** unique list objects *)
      mix : (Trace.Event.prim * int) list;    (** counts, all_prims order *)
    }
  | Analyze_out of {
      separation : float;
      distinct_lists : int;
      mean_n : float;
      mean_p : float;
      sets : int;
      stream_length : int;
      sets_for_50 : int;
      sets_for_80 : int;
      sets_for_95 : int;
      lru_hits : (int * float) list;          (** depth -> hit fraction *)
      car_chain_pct : float;
      cdr_chain_pct : float;
    }
  | Simulate_out of Core.Simulator.stats
  | Knee_out of {
      size : int;
      stats : Core.Simulator.stats;
    }

(** [preprocessed_of_source s] is the flat form every job on [s]
    reads.  A workload's is built once per process by the registry
    ({!Workloads.Registry.preprocessed}); a binary trace file is read
    into the calling domain's kept buffer ({!Trace.Io.with_path}) and
    scanned off its source ({!Trace.Preprocess.run_source}), a lookup
    when the process has already scanned those exact bytes; a
    sexp-lines file is preprocessed through its capture.  The form may
    be shared: do not mutate it.
    @raise Trace.Io.Corrupt on a damaged file. *)
val preprocessed_of_source : Job.source -> Trace.Preprocess.t

(** [stats pre] is a stats job's output over the flat form. *)
val stats : Trace.Preprocess.t -> output

(** The trace half of the result-cache key: for a workload, the MD5 of
    its binary encoding ({!Workloads.Registry.digest}, memoised); for a
    file, the MD5 of the file bytes. *)
val trace_digest : Job.source -> string

(** Raised by {!run} when a trace file's stamp differs from the one
    expected: the file changed since it was hashed.  Carries the
    path. *)
exception Source_changed of string

(** The stamp of a job's trace file ([None] for a workload), taken
    before its {!trace_digest} so that {!run} can check it read the
    bytes that were hashed.
    @raise Unix.Unix_error when the file cannot be stat'ed. *)
val source_stamp : Job.source -> Trace.Io.stamp option

(** [run ?should_stop ~expect job] executes the job in the calling
    domain.  [should_stop] is polled between pipeline stages (a
    simulation in flight is not interrupted); when it turns true,
    [Exit] is raised.  With [expect = Some stamp], a trace
    file whose descriptor stamps differently raises {!Source_changed}
    before anything is computed from it. *)
val run : ?should_stop:(unit -> bool) -> expect:Trace.Io.stamp option -> Job.t -> output

val output_to_sexp : output -> Sexp.Datum.t
val output_of_sexp : Sexp.Datum.t -> (output, string) result

(** The wire rendering of a result body. *)
val output_to_json : output -> Json.t
