(** Runtime values of the mini-Lisp.

    Pairs are mutable (rplaca/rplacd are real destructive operations, as in
    any Lisp), so values are distinct heap objects even when structurally
    equal — the property the trace preprocessing of §5.2.1 has to recover
    statistically. *)

type t =
  | Nil
  | T                          (** the true atom *)
  | Sym of string
  | Int of int
  | Str of string
  | Pair of pair
  | Subr of string             (** a primitive, by name *)
  | Lambda of lambda           (** a user function body (unevaluated) *)
  | Funarg of int              (** a function-environment pair (§2.2.1),
                                   keyed into the interpreter's table *)

and pair = {
  mutable car : t;
  mutable cdr : t;
  mutable on_path : bool;      (** set only while {!to_datum} converts the
                                   pair's subtree (its cycle check) *)
}

and lambda = {
  params : string list;
  body : t list;               (** body forms, evaluated in sequence *)
}

val nil : t
val t_ : t
val sym : string -> t
val int : int -> t
val cons : t -> t -> t

(** Build a proper list. *)
val list : t list -> t

(** [of_datum d] converts a read s-expression to a value (fresh pairs). *)
val of_datum : Sexp.Datum.t -> t

(** [to_datum v] snapshots a value as an s-expression, for tracing and
    printing.  Cycles introduced by rplacd are cut with the symbol
    [<cycle>]; non-list atoms convert naturally. *)
val to_datum : t -> Sexp.Datum.t

(** Lisp truth: everything but [Nil] is true. *)
val truthy : t -> bool

(** Structural equality ([equal]); compares pairs recursively (cycle-safe
    up to a large depth bound). *)
val equal : t -> t -> bool

(** Identity equality ([eq]): atoms by value, pairs by physical identity. *)
val eq : t -> t -> bool

val is_atom : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
