type result = {
  counts : (Trace.Event.prim * int) list;
  total : int;
}

(* The primitive of each event code is its wire kind. *)
let analyze (pre : Trace.Preprocess.t) =
  let k = Array.make 7 0 in
  Array.iter
    (fun code ->
       let kd = Trace.Preprocess.kind code in
       k.(kd) <- k.(kd) + 1)
    pre.codes;
  let count : Trace.Event.prim -> int = function
    | Car -> k.(2)
    | Cdr -> k.(3)
    | Cons -> k.(4)
    | Rplaca -> k.(5)
    | Rplacd -> k.(6)
  in
  { counts = List.map (fun p -> (p, count p)) Trace.Event.all_prims;
    total = k.(2) + k.(3) + k.(4) + k.(5) + k.(6) }

let pct r prim =
  if r.total = 0 then 0.
  else
    100.
    *. float_of_int (Option.value ~default:0 (List.assoc_opt prim r.counts))
    /. float_of_int r.total
