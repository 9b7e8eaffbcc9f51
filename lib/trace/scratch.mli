(** Per-domain working memory kept between uses, off the OCaml heap.

    A pool holds, for each domain, at most one [Bigarray] buffer that
    the domain's next use takes over, so a worker that serves job after
    job allocates its working memory once.  The storage lives outside
    the OCaml heap: kept on the heap, it would count as live words and
    let the major collector retain proportionally more garbage. *)

type ('a, 'b) buf = ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t

type ('a, 'b) t

(** What a use holds: the buffer, which the use may replace by a
    larger one (the replacement is what the pool keeps). *)
type ('a, 'b) lease = { mutable buf : ('a, 'b) buf }

(** A pool of buffers of one element kind.  Create pools at module
    initialisation: each is registered with {!retained_bytes}. *)
val create : ('a, 'b) Bigarray.kind -> ('a, 'b) t

(** [use t n f] runs [f] on a buffer of at least [n] elements.  The
    calling domain's kept buffer is taken when it has room for [n] and
    [n] is at least a quarter of its length; otherwise a buffer of
    exactly [n] replaces it.  When [f] returns or raises, the lease's
    buffer becomes the kept one.  A use nested in (or interleaved with)
    another use of the same pool in the same domain gets a fresh buffer
    that is not kept.  The contents are unspecified on entry. *)
val use : ('a, 'b) t -> int -> (('a, 'b) lease -> 'c) -> 'c

(** The calling domain's kept buffer length ([0] when it has none, or
    while it is in use). *)
val kept_length : ('a, 'b) t -> int

(** Bytes the calling domain keeps across all pools. *)
val retained_bytes : unit -> int
