(** Execution frequencies of the primitive Lisp functions (§3.3.1,
    Figure 3.1): the fraction of all traced primitives that are car, cdr,
    cons, rplaca and rplacd. *)

type result = {
  counts : (Trace.Event.prim * int) list;  (** in {!Trace.Event.all_prims} order *)
  total : int;
}

(** The counts off a preprocessed trace's event codes. *)
val analyze : Trace.Preprocess.t -> result

(** [pct r prim] as a percentage of all traced primitives. *)
val pct : result -> Trace.Event.prim -> float
