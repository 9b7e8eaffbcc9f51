(** Trace preprocessing (§5.2.1).

    Raw traces identify list arguments only by their s-expression form; two
    structurally identical arguments may or may not be the same heap
    object.  Following the thesis, every list argument is replaced by two
    integers: a {e unique identifier} (structurally identical lists share
    one) and a {e chaining flag}, set when the argument is the value
    returned by the previous primitive call in the trace (so it is
    certainly the same object, available "on top of the stack"). *)

type arg =
  | Atom of Sexp.Datum.t       (** a non-list argument, kept verbatim *)
  | List of { id : int; chained : bool }

type pevent =
  | Pprim of {
      prim : Event.prim;
      args : arg list;
      result : arg;             (** ids let car/cdr relate parent to child *)
    }
  | Pcall of { name : string; nargs : int }
  | Preturn of { name : string }

type t = {
  events : pevent array;
  distinct_lists : int;        (** number of unique list identifiers *)
  stats : Capture.stats;
  np_by_id : (int * int) array; (** id -> (n, p) of that list's s-expression *)
}

(** [run capture] preprocesses a captured trace. *)
val run : Capture.t -> t

(** [run_source src] preprocesses a binary trace directly off its flat
    event batches: identical output to
    [run (Binary.capture_of_source src)] — same ids, chaining flags,
    statistics and (n, p) table — but no [Event.t] is built and only
    atoms are materialised as datums. *)
val run_source : Binary.source -> t

(** [scan_source ~call ~return_ ~prim src] runs the id-assignment pass of
    {!run_source} without building any [pevent]: per event one callback
    fires with scalars.  [call]/[return_] mirror [Pcall]/[Preturn]
    (names dropped); [prim ~kind ~nargs ~prev ids] reports the wire kind
    (2 car, 3 cdr, 4 cons, 5 rplaca, 6 rplacd), the argument count, the
    previous primitive's list result id ([-1] for none) and a scratch
    array, valid only during the call, whose slot [j < nargs] is
    argument [j]'s list id and slot [nargs] the result's ([-1] for an
    atom).  An argument is chained iff its id equals [prev].  Ids,
    chaining and the (n, p) table are computed exactly as in
    {!run_source}; the returned array maps each id to its drawable size
    [max 1 (n + p)] — the only per-id datum the simulator consumes.
    Both scans keep their span table in the calling domain's
    {!Scratch} storage between calls; a scan started from a callback
    gets storage of its own. *)
val scan_source :
  call:(nargs:int -> unit) ->
  return_:(unit -> unit) ->
  prim:(kind:int -> nargs:int -> prev:int -> int array -> unit) ->
  Binary.source -> int array

(** [prim_refs t] extracts the flat stream of list-object references made
    by primitives (arguments then result, per event, ids only) — the list
    access reference stream analysed in Chapter 3. *)
val prim_refs : t -> int array
