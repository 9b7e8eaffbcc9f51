(** Compact binary trace format ("SMTB"): length-prefixed chunks of
    varint-coded events with incrementally interned symbol/function
    names, so large traces serialise to a fraction of the s-expression
    form and load without parsing text.

    Framing: the magic {!magic}, then chunks of [varint event_count,
    varint byte_length, fnv1a64(payload), payload] (the hash
    big-endian, verified as the chunk is decoded — so a reader needs no
    up-front pass over the file); [event_count = 0]
    terminates the stream, and a mandatory 12-byte trailer
    ["SMCK" ^ fnv1a64] (big-endian) covers the magic, the chunk headers
    and the end marker (the stream's structure).  A stream with another
    ["SMTB"] revision, or with no trailer, is rejected as {!Corrupt}.

    Within a chunk, events are tag bytes followed by varint fields; all
    integers use LEB128 (signed values zigzag-coded), and every symbol,
    function name and string is written once and referenced by table
    index afterwards (the intern table persists across chunks).  The
    reader processes one chunk at a time, so memory tracks the chunk
    size, not the file size. *)

(** The 6-byte magic prefix of a binary trace ("SMTB\x02\n"). *)
val magic : string

(** ["SMTB"]: the prefix every revision of the format shares.  A
    stream starting with it but not with {!magic} is rejected with
    reason ["unsupported binary trace version"]. *)
val family : string

(** Raised on a corrupt or truncated stream.  [offset] is the byte
    position in the stream where the damage was detected ([-1] when the
    channel is not seekable). *)
exception Corrupt of { offset : int; reason : string }

(** {1 Streaming writer} *)

type writer

(** [writer oc] starts a binary stream on [oc] (writes the header).
    [chunk_events] bounds how many events are buffered before a chunk is
    flushed (default 4096). *)
val writer : ?chunk_events:int -> out_channel -> writer

val write_event : writer -> Event.t -> unit

(** Flushes the final partial chunk, the end-of-stream marker, and the
    checksum trailer.  The channel itself is left open for the caller to
    close. *)
val close_writer : writer -> unit

(** {1 Zero-copy sources}

    A {!source} exposes a whole stream as one random-access byte view
    off the OCaml heap — a buffer the source owns, or the calling
    domain's kept buffer during a scoped read ({!with_fd_source}) — so
    replay starts without materialising the file on the OCaml heap.
    Every function taking a source, or a reader over one, raises
    [Invalid_argument] once the scoped read that made the source has
    returned. *)

type source

(** @raise Corrupt if the magic is missing. *)
val source_of_string : string -> source

(** [with_fd_source fd len f] reads [len] bytes of [fd] into the
    calling domain's kept buffer and runs [f] on them as a source,
    valid only until [f] returns.  The buffer is kept for the domain's
    next scoped read; see {!Scratch.use} for when it is replaced and
    for nested reads.
    @raise Corrupt if the magic is missing or the file is shorter than
    [len]. *)
val with_fd_source : Unix.file_descr -> int -> (source -> 'a) -> 'a

(** [source_of_fd fd len] reads [len] bytes of [fd] into a buffer the
    source owns: the GC frees it like any other once the source is
    dropped.
    @raise Corrupt if the magic is missing or the file is shorter than
    [len]. *)
val source_of_fd : Unix.file_descr -> int -> source

val source_length : source -> int

(** {1 Flat event batches}

    One chunk decodes into one reusable struct-of-arrays batch: packed
    [kind|nargs] tags, intern indices for names, and a flat preorder
    token stream for datums — no per-event variant allocation on the
    hot path. *)

module Batch : sig
  type t

  (** Events in the batch. *)
  val length : t -> int

  (** Wire kind of event [i]: 0 call, 1 return, 2 car, 3 cdr, 4 cons,
      5 rplaca, 6 rplacd. *)
  val kind : t -> int -> int

  (** Call arity / primitive argument count of event [i]. *)
  val nargs : t -> int -> int

  (** Function name of a call/return event. *)
  val name : t -> int -> string

  (** A token is one int, [(value lsl 3) lor tag].  Token tags: 0 nil;
      1 sym; 2 int (one that fits in 60 signed bits); 3 str; 4 proper
      list (value = car count >= 1); 5 improper spine (value = car count
      >= 1, followed by its non-nil atom tail); 6 then 7, an int that
      does not fit in 60 bits (its high bits, then its low 32).  The
      stream is canonical for every accepted encoding (list tails merge
      into their spine, a nil tail makes a proper list, a string
      re-defined inline keeps its first intern index, an int has one
      form): token spans are identical iff the datums are structurally
      equal. *)
  val tok_tag : t -> int -> int

  (** Sym/str: intern index.  Int: the value.  Lists: the car count.
      Tags 6 and 7: the high and the low bits of a wide int. *)
  val tok_val : t -> int -> int

  (** The interned string behind a sym/str token. *)
  val tok_str : t -> int -> string

  (** Top-level datums.  A primitive's arguments in order, then its
      result, are datums [first_datum b i .. first_datum b (i+1)); a
      call or return has none.  Datum [d] is the token span
      [datum_start b d .. datum_stop b d), and [datum_hash b d] is
      a hash of that span, computed by the decoder as it wrote the
      tokens: identical spans have equal hashes, and the hash's high
      bits depend on every bit of every token. *)
  val first_datum : t -> int -> int

  val datum_start : t -> int -> int

  val datum_stop : t -> int -> int

  val datum_hash : t -> int -> int

  (** [datum_same b d] is an earlier datum of the batch whose span is
      identical to datum [d]'s, when the decoder saw it (the decoder
      looks only among recent lists); otherwise [-1]. *)
  val datum_same : t -> int -> int

  (** The live token array, valid until the next batch is decoded:
      token [k] is at [k]. *)
  val tokens : t -> int array

  (** Materialise the datum rooted at token [k] (cold paths only). *)
  val datum : t -> int -> Sexp.Datum.t * int

  (** Rebuild event [i] as an {!Event.t} — the thin adapter legacy
      consumers go through. *)
  val event : t -> int -> Event.t
end

(** {1 Batched replay} *)

type reader

(** [read_source src] positions a reader after the magic.  O(1). *)
val read_source : source -> reader

(** The next decoded, checksum-verified batch, or [None] at end of
    stream (after trailer verification).  The returned batch is REUSED
    by the next call — consume it before advancing.
    @raise Corrupt on damage. *)
val next_batch : reader -> Batch.t option

(** [iter_batches src f] runs [f] over every chunk's batch. *)
val iter_batches : source -> (Batch.t -> unit) -> unit

(** Decode a whole source into a capture, one {!Batch.event} per
    event. *)
val capture_of_source : source -> Capture.t

(** {1 Header-only statistics} *)

type header_stats = {
  h_events : int;
  h_chunks : int;
  h_bytes : int;          (** whole stream, trailer included *)
  h_payload_bytes : int;  (** sum of chunk payload lengths *)
}

(** Walk chunk headers only — no payload byte is read, no event is
    materialised.  The structural trailer is verified.
    @raise Corrupt on damaged framing. *)
val header_stats : source -> header_stats

(** {1 Whole-capture convenience} *)

val write_channel : out_channel -> Capture.t -> unit

(** [write_atomic ?fault path write] runs [write] on a temp file in
    [path]'s directory, then renames it over [path].  [?fault] draws
    from the plan at site ["trace.save"]: an injected write error raises
    [Sys_error] leaving the destination untouched; a torn write lands a
    strict prefix of what [write] wrote at the destination (a lying
    disk: the save returns normally).  Both trace formats save through
    it. *)
val write_atomic : ?fault:Fault.Plan.t -> string -> (out_channel -> unit) -> unit

(** [save ?fault path capture] writes the binary encoding through
    {!write_atomic}; the checksums make a load detect a torn write. *)
val save : ?fault:Fault.Plan.t -> string -> Capture.t -> unit

(** [encode produce] is the full encoded stream, in memory, of the
    events [produce] passes to the emit function it is given, in order
    (default 4096-event chunks).  No capture is built: a tracer can
    stream straight into the encoding. *)
val encode : ((Event.t -> unit) -> unit) -> string

(** [to_string capture] is [encode] over the capture's events. *)
val to_string : Capture.t -> string

(** [digest capture] is the MD5 hex digest of the binary encoding — the
    content address of a trace, used to key the server's result cache. *)
val digest : Capture.t -> string
