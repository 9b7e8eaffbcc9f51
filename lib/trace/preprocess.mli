(** Trace preprocessing (§5.2.1).

    Raw traces identify list arguments only by their s-expression form; two
    structurally identical arguments may or may not be the same heap
    object.  Following the thesis, every list argument is replaced by two
    integers: a {e unique identifier} (structurally identical lists share
    one) and a {e chaining flag}, set when the argument is the value
    returned by the previous primitive call in the trace (so it is
    certainly the same object, available "on top of the stack").

    The result is one flat form, struct-of-arrays, that the simulator,
    the statistics and every Chapter 3 analysis read: one code per
    event, the list reference stream, and the per-id (n, p) table.
    Function names and atom values are not kept; nothing reads them. *)

type refs = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  codes : int array;
      (** one code per event, in trace order; see {!kind} and below *)
  refs : refs;
      (** the list reference stream (Chapter 3): per primitive, the ids
          of its list arguments in order, then its result's id when the
          result is a list; see {!ref_id} *)
  np : int array;
      (** id [i]'s (n, p) — symbols and internal parenthesis pairs of
          that list's s-expression — at [2i] and [2i + 1] *)
  distinct_lists : int;  (** number of unique list identifiers *)
  stats : Capture.stats;
}

(** {1 Producers}

    Both give identical forms for the same events: same codes, ids,
    reference stream, (n, p) table and statistics. *)

(** [run capture] assigns list identity by hashing datums.  It serves
    sexp-lines traces and is the independent reference the token scan
    is checked against. *)
val run : Capture.t -> t

(** [scan src] preprocesses a binary trace off its flat event batches,
    assigning list identity from token spans: no [Event.t] and no datum
    is built.  Its span table grows in the calling domain's {!Scratch}
    storage, kept between calls; the reference stream and the (n, p)
    table are written in place into arrays the form owns, at the
    lengths the domain's last call ended with.  Every call scans.
    @raise Binary.Corrupt on a damaged stream. *)
val scan : Binary.source -> t

(** [run_source src] is [scan src], looked up in the process-wide
    {!memo} first: a repeat scan of bytes this process has already
    scanned is a lookup, by an exact comparison of the bytes, and
    returns the form the first scan built.  That form is shared by
    every caller that gets it: callers must not mutate its arrays.
    @raise Binary.Corrupt on a damaged stream. *)
val run_source : Binary.source -> t

(** {1 The form memo}

    Forms of binary sources, keyed by the sources' exact bytes, least
    recently used first out.  An entry costs its source's length plus
    its form's arrays; the entries together cost at most the memo's
    cap, and a source whose entry alone would cost more is scanned and
    not kept.  Safe to share between domains: a lock guards the
    entries, and no scan runs under it; domains that scan the same
    bytes at once keep one entry and return its form. *)
module Memo : sig
  type form := t
  type t

  type stats = {
    hits : int;        (** calls answered by a kept form *)
    misses : int;      (** calls that scanned *)
    kept_bytes : int;  (** what the kept entries cost *)
    entries : int;
  }

  (** An empty memo whose entries cost at most [cap] bytes. *)
  val create : cap:int -> t

  (** [run m src] is [scan src], looked up in [m] first and kept in it
      after. *)
  val run : t -> Binary.source -> form

  val stats : t -> stats
end

(** The cap of {!memo}: 64 MB, about four entries of the 465k-event
    trace (7.9 MB of bytes and 6.9 MB of form). *)
val memo_cap : int

(** The process-wide memo {!run_source} reads. *)
val memo : Memo.t

(** The length of the reference stream. *)
val ref_count : t -> int

(** [ref_id t k] is the [k]th id of the reference stream. *)
val ref_id : t -> int -> int

(** {1 Event codes}

    A call's code carries its argument count; a return's is [1].  A
    primitive's code carries its wire kind, argument count, which
    argument positions are lists, which of those are chained, and
    whether the result is a list.  A primitive of more than 24
    arguments is {e wide}: its code keeps the count of its list
    arguments and whether any is chained, not their positions. *)

(** Wire kind: 0 call, 1 return, 2 car, 3 cdr, 4 cons, 5 rplaca,
    6 rplacd. *)
val kind : int -> int

(** A call's argument count. *)
val call_nargs : int -> int

(** A primitive's argument count, saturating at 255. *)
val arity : int -> int

(** Bit [j] set when a primitive's argument [j] is a list (not wide). *)
val list_mask : int -> int

(** Bit [j] set when argument [j] is a chained list (not wide). *)
val chained_mask : int -> int

val result_is_list : int -> bool
val is_wide : int -> bool

(** How many of a primitive's arguments are lists: its share of
    [refs], before its result. *)
val list_args : int -> int

(** Whether any list argument of a primitive is chained. *)
val chained : int -> bool
