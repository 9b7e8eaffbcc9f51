(** Execution frequencies of the primitive Lisp functions (§3.3.1,
    Figure 3.1): the fraction of all traced primitives that are car, cdr,
    cons, rplaca and rplacd. *)

type result = {
  counts : (Trace.Event.prim * int) list;  (** in {!Trace.Event.all_prims} order *)
  total : int;
}

val analyze : Trace.Capture.t -> result

(** Same counts off the flat batches of a mapped binary trace — no
    event or datum is materialised. *)
val analyze_source : Trace.Binary.source -> result

(** [of_kind_counts k] reads [k.(2)] .. [k.(6)] as the car, cdr, cons,
    rplaca and rplacd counts — the binary format's wire kinds, as
    {!Trace.Preprocess.scan_source} reports them. *)
val of_kind_counts : int array -> result

(** Same counts off a preprocessed trace. *)
val of_preprocessed : Trace.Preprocess.t -> result

(** [pct r prim] as a percentage of all traced primitives. *)
val pct : result -> Trace.Event.prim -> float
