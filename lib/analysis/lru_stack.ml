type result = {
  distances : (int, int) Hashtbl.t;
  cold : int;
  total : int;
}

let bump distances d =
  Hashtbl.replace distances d
    (1 + Option.value ~default:0 (Hashtbl.find_opt distances d))

(* Olken/Bennett–Kruskal: a Fenwick tree over access timestamps holds a 1
   at the *latest* access of each distinct item, so the stack distance of
   a re-reference at time [t] to an item last seen at [lt] is one plus the
   number of marks strictly between them — O(log n) per access instead of
   the move-to-front list walk. *)
let analyze stream =
  let n = Array.length stream in
  let distances = Hashtbl.create 64 in
  let cold = ref 0 in
  let last = Hashtbl.create 64 in
  let marks = Fenwick.create n in
  Array.iteri
    (fun t x ->
       (match Hashtbl.find_opt last x with
        | Some lt ->
          bump distances (1 + Fenwick.range marks (lt + 1) t);
          Fenwick.add marks lt (-1)
        | None -> incr cold);
       Fenwick.add marks t 1;
       Hashtbl.replace last x t)
    stream;
  { distances; cold = !cold; total = n }

let hit_fraction r k =
  if r.total = 0 then 0.
  else begin
    let hits = ref 0 in
    Hashtbl.iter (fun d c -> if d <= k then hits := !hits + c) r.distances;
    float_of_int !hits /. float_of_int r.total
  end

let curve r ~max_depth =
  List.init max_depth (fun i ->
      let k = i + 1 in
      (float_of_int k, hit_fraction r k))
