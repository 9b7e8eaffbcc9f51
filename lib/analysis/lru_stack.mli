(** LRU stack-distance analysis (§3.3.2.3, Figure 3.7), after Mattson's
    one-pass stack algorithm [Matt70a]: a single pass over the reference
    stream yields the hit counts of every LRU stack size at once.

    A reference's stack distance is the (1-based) depth of its item in the
    LRU stack at access time; first-time references have infinite distance
    (recorded separately).  The success rate of an LRU buffer of size [k]
    is the fraction of references with distance <= k. *)

type result = {
  distances : (int, int) Hashtbl.t;  (** distance -> reference count *)
  cold : int;                        (** first-time references *)
  total : int;
}

(** One pass via the Olken/Bennett–Kruskal algorithm — a {!Fenwick} tree
    counts the distinct items between consecutive accesses of the same
    item — O(n log n) over an n-reference stream.  The test suite
    checks it against the direct move-to-front simulation. *)
val analyze : int array -> result

(** [hit_fraction r k] = fraction of all references at stack distance
    <= [k]. *)
val hit_fraction : result -> int -> float

(** [curve r ~max_depth] returns [(depth, cumulative fraction)] points for
    depths 1..max_depth — the Figure 3.7 plot. *)
val curve : result -> max_depth:int -> (float * float) list
