(** Interpreter instrumentation: the modified-interpreter trace capture of
    §3.3.1.  Attaching a tracer records every list-primitive call (with its
    arguments and result in s-expression form) and every user-function
    entry/exit, either into a {!Trace.Capture.t} or straight into its
    binary encoding ({!encode_program}). *)

(** [attach interp] installs tracing hooks and returns the capture being
    filled. *)
val attach : Interp.t -> Trace.Capture.t

(** [detach interp] removes the hooks. *)
val detach : Interp.t -> unit

(** [trace_program ?strategy ?input source] creates a fresh interpreter,
    loads the prelude untraced, then runs [source] with tracing: the
    standard way to produce a workload trace. *)
val trace_program :
  ?strategy:Env.strategy ->
  ?input:Sexp.Datum.t list ->
  string ->
  Trace.Capture.t

(** [encode_program ?strategy ?input source] runs [source] as
    {!trace_program} does, streaming each event into
    {!Trace.Binary.encode} as it happens: the result equals
    [Trace.Binary.to_string (trace_program ?strategy ?input source)],
    but no capture is built. *)
val encode_program :
  ?strategy:Env.strategy ->
  ?input:Sexp.Datum.t list ->
  string ->
  string
