(** The benchmark suite: the five workloads of §3.3.1 by name, with
    cached traces (tracing an interpreted run is the expensive step; every
    analysis and simulation reuses the same encoded trace). *)

type workload = {
  name : string;
  description : string;
  source : string;
  input : Sexp.Datum.t list;
}

(** plagen, slang, lyra, editor, pearl — in the thesis's listing order. *)
val all : workload list

val find : string -> workload option

(** [digest w] is the MD5 hex digest of the workload's binary trace
    encoding ({!Trace.Binary.to_string} of its trace, byte for byte),
    the content address that keys the server's result cache.  The first
    use runs the workload under the instrumented interpreter, streaming
    its events into the encoding; the registry keeps that encoding off
    the OCaml heap, and every other form is derived from it. *)
val digest : workload -> string

(** [trace w] is the workload's captured trace, decoded from its
    encoding (memoised). *)
val trace : workload -> Trace.Capture.t

(** [preprocessed w] is the §5.2.1 preprocessing of [trace w], scanned
    off the encoding without decoding the capture, built once per
    process. *)
val preprocessed : workload -> Trace.Preprocess.t

(** The four simulation traces of Table 5.1 (everything but pearl, whose
    trace the thesis also dropped from Chapter 5). *)
val simulation_suite : unit -> workload list
