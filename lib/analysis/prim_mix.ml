type result = {
  counts : (Trace.Event.prim * int) list;
  total : int;
}

let analyze capture =
  let tbl = Hashtbl.create 8 in
  let total = ref 0 in
  Array.iter
    (fun (e : Trace.Event.t) ->
       match e with
       | Prim { prim; _ } ->
         incr total;
         Hashtbl.replace tbl prim (1 + Option.value ~default:0 (Hashtbl.find_opt tbl prim))
       | Call _ | Return _ -> ())
    (Trace.Capture.events capture);
  {
    counts =
      List.map
        (fun p -> (p, Option.value ~default:0 (Hashtbl.find_opt tbl p)))
        Trace.Event.all_prims;
    total = !total;
  }

(* Counts indexed by wire kind — the binary format's primitive tag. *)
let of_kind_counts k =
  let count : Trace.Event.prim -> int = function
    | Car -> k.(2)
    | Cdr -> k.(3)
    | Cons -> k.(4)
    | Rplaca -> k.(5)
    | Rplacd -> k.(6)
  in
  { counts = List.map (fun p -> (p, count p)) Trace.Event.all_prims;
    total = k.(2) + k.(3) + k.(4) + k.(5) + k.(6) }

(* Same counts off the flat batches of a mapped binary trace: the wire
   kind is the primitive tag, so no event is materialised. *)
let analyze_source src =
  let module B = Trace.Binary.Batch in
  let k = Array.make 7 0 in
  Trace.Binary.iter_batches src (fun b ->
      for i = 0 to B.length b - 1 do
        let kd = B.kind b i in
        k.(kd) <- k.(kd) + 1
      done);
  of_kind_counts k

(* And off an already-preprocessed trace (primitive identity survives
   preprocessing untouched). *)
let of_preprocessed (p : Trace.Preprocess.t) =
  let tbl = Hashtbl.create 8 in
  let total = ref 0 in
  Array.iter
    (function
      | Trace.Preprocess.Pprim { prim; _ } ->
        incr total;
        Hashtbl.replace tbl prim
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl prim))
      | Trace.Preprocess.Pcall _ | Trace.Preprocess.Preturn _ -> ())
    p.Trace.Preprocess.events;
  {
    counts =
      List.map
        (fun p -> (p, Option.value ~default:0 (Hashtbl.find_opt tbl p)))
        Trace.Event.all_prims;
    total = !total;
  }

let pct r prim =
  if r.total = 0 then 0.
  else
    100.
    *. float_of_int (Option.value ~default:0 (List.assoc_opt prim r.counts))
    /. float_of_int r.total
