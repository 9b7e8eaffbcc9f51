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

(** s-expression lines only; [Binary.write_channel] handles the other
    format. *)
val write_channel : out_channel -> Capture.t -> unit

(** @raise Corrupt on malformed input (path reported as ["<channel>"]). *)
val read_channel : in_channel -> Capture.t

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
    into an owned in-memory source without decoding any event (a
    mapping is {!Binary.source_of_path}'s default).
    @raise Corrupt on a missing magic or garbage sexp input. *)
val open_path : string -> loaded

(** [load path] auto-detects the format from the file's first bytes and
    decodes everything (binary traces via their source).
    @raise Corrupt on truncated or garbage input in either format. *)
val load : string -> Capture.t
