(** Trace serialisation.

    Two formats share one [load] entry point:
    - {!Sexp_lines} — one datum per line, human-greppable:
      [(p <prim> (<args>...) <result>)], [(c <name> <nargs>)],
      [(r <name>)];
    - {!Binary} — the compact chunked {!Binary} format, detected on
      load by its magic prefix.

    [save] is atomic in both formats: the encoding goes to a temp file
    in the destination directory which is then renamed into place, so a
    killed run cannot leave a truncated trace behind.  [load] verifies
    structure (and, for binary traces, the checksum trailer) and raises
    the typed {!Corrupt} on damaged input in either format — callers
    never see parser internals or [Invalid_argument]. *)

(** Raised by {!load} on truncated or garbage input.  [offset] is the
    byte position of the damaged line or chunk within the file ([-1]
    when unknown). *)
exception Corrupt of { path : string; offset : int; reason : string }

val event_to_datum : Event.t -> Sexp.Datum.t

(** @raise Invalid_argument on a malformed event datum. *)
val event_of_datum : Sexp.Datum.t -> Event.t

type format = Sexp_lines | Binary

(** [save ?format ?fault path capture] writes atomically; default
    {!Sexp_lines}.  [?fault] draws at site ["trace.save"]: an injected
    write error raises [Sys_error] with the destination untouched; a
    torn write lands a strict prefix of the encoding ("lying disk"). *)
val save : ?format:format -> ?fault:Fault.Plan.t -> string -> Capture.t -> unit

(** What {!open_path} found: a binary trace as a zero-copy
    {!Binary.source}, or a sexp-lines trace already parsed into a
    capture (that format has no random-access representation). *)
type loaded =
  | Binary_source of Binary.source
  | Sexp_capture of Capture.t

(** [open_path path] auto-detects the format; a binary trace is read
    into an in-memory source it owns, without decoding any event.  It
    shares {!with_path}'s read: only where the bytes live differs.
    @raise Corrupt on a missing magic, garbage sexp input, or a file
    that changed while it was read. *)
val open_path : string -> loaded

(** A file's identity and version: device, inode, size, modification
    and status-change times.  A rewrite in place or by rename changes
    it. *)
type stamp = { dev : int; ino : int; size : int; mtime : float; ctime : float }

(** [stamp path] is the stamp of one [Unix.stat].
    @raise Unix.Unix_error if [path] cannot be stat'ed. *)
val stamp : string -> stamp

(** [with_path path f] is [f stamp loaded] for the file at [path], read
    once: [stamp] is the [fstat] of the descriptor read, and a binary
    trace is read into the calling domain's kept buffer (see
    {!Binary.with_fd_source}) instead of a copy it owns.  The source is
    valid only until [f] returns; a later use raises [Invalid_argument].
    A use nested in another gets a buffer of its own.  A
    {!Binary.Corrupt} from the read or from [f] surfaces as {!Corrupt}
    with [path].  [open_path] stays the entry point for a source that
    must outlive the call.
    @raise Corrupt on a missing magic, garbage sexp input, or a file
    that changed while it was read. *)
val with_path : string -> (stamp -> loaded -> 'a) -> 'a

(** [load path] auto-detects the format from the file's first bytes and
    decodes everything (binary traces via their source, read as
    {!with_path} reads).
    @raise Corrupt on truncated or garbage input in either format. *)
val load : string -> Capture.t
