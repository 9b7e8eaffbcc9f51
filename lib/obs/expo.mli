(** Prometheus text exposition (format 0.0.4) of registry snapshots:
    one [# HELP]/[# TYPE] header per family, histograms expanded into
    cumulative [_bucket{le="..."}] series plus [_sum] and [_count]. *)

val text : Registry.sample list -> string

(** [of_registry reg] = [text (Registry.snapshot reg)]. *)
val of_registry : Registry.t -> string

(** [write_file reg path] replaces [path] with {!of_registry}[ reg]
    atomically (a temp file in the same directory, then a rename), so a
    scraper never reads a half-written file.  I/O errors are ignored:
    the next write tries again. *)
val write_file : Registry.t -> string -> unit
