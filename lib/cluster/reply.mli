(** The header of a JSON reply line, read in one walk.

    Routers and load generators act on a few top-level fields of each
    reply: the wire id a shard echoes first, [status], [cached] and
    [shard].  {!read} finds all of them in one pass over the line,
    skipping string values (escapes included) and nested objects and
    arrays, so a field name quoted inside an error message or nested in
    a result is never taken for the reply's own.  The walk allocates
    nothing; its one allocation is the returned header. *)

type status =
  [ `Ok | `Error | `Overloaded | `Shard_down | `Timeout | `Cancelled | `Shed
  | `Other    (** a status this module does not name *)
  | `Absent   (** no top-level string [status] *) ]

type header = {
  id : int;         (** the leading wire id ([{"id":N,...]), or [-1] *)
  id_end : int;     (** the offset just past the id's digits; [0] without one *)
  status : status;
  cached : bool;    (** a top-level ["cached":true] *)
  shard_at : int;   (** offset of the [shard] string's first byte, or [-1] *)
  shard_len : int;  (** its length in bytes, escapes unresolved *)
}

val read : string -> header

(** The line as a client sees it: the wire id removed, when one leads
    the line and a field follows it, and [client_id], when given, put
    first in its place.  At most one copy of the line is made; none
    when there is nothing to change. *)
val for_client : ?client_id:int -> header -> string -> string

(** The [shard] field's value, if the reply carries one. *)
val shard : header -> string -> string option
