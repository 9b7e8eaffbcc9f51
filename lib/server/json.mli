(** A minimal JSON value and printer for the service's wire format —
    just enough to stream result objects as single lines without an
    external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** JSON text already rendered by {!to_string}, emitted verbatim:
          a reply can embed a memoised fragment without re-rendering it *)

(** Compact single-line rendering (no spaces or newlines); floats print
    via [%.17g] so values survive a parse round-trip. *)
val to_string : t -> string

(** [member name j] is the field [name] of an object, if present. *)
val member : string -> t -> t option
