type set = {
  size : int;
  first : int;
  last : int;
}

type result = {
  sets : set list;
  stream_length : int;
}

let lifetime s = s.last - s.first

(* Growable union-find over set indices, with per-root set records. *)
module Uf = struct
  type t = {
    mutable parent : int array;
    mutable size : int array;     (* references in the set *)
    mutable first : int array;
    mutable last : int array;
    mutable len : int;
  }

  let create () =
    { parent = Array.make 64 0; size = Array.make 64 0; first = Array.make 64 0;
      last = Array.make 64 0; len = 0 }

  let grow t =
    let cap = Array.length t.parent in
    if t.len = cap then begin
      let extend a def =
        let b = Array.make (2 * cap) def in
        Array.blit a 0 b 0 cap;
        b
      in
      t.parent <- extend t.parent 0;
      t.size <- extend t.size 0;
      t.first <- extend t.first 0;
      t.last <- extend t.last 0
    end

  let fresh t pos =
    grow t;
    let i = t.len in
    t.len <- t.len + 1;
    t.parent.(i) <- i;
    t.size.(i) <- 0;
    t.first.(i) <- pos;
    t.last.(i) <- pos;
    i

  let rec find t i =
    if t.parent.(i) = i then i
    else begin
      let root = find t t.parent.(i) in
      t.parent.(i) <- root;
      root
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra = rb then ra
    else begin
      (* keep the larger as root *)
      let root, child = if t.size.(ra) >= t.size.(rb) then (ra, rb) else (rb, ra) in
      t.parent.(child) <- root;
      t.size.(root) <- t.size.(root) + t.size.(child);
      t.first.(root) <- min t.first.(root) t.first.(child);
      t.last.(root) <- max t.last.(root) t.last.(child);
      root
    end
end

(* Core pass.  For each primitive event we see its list references in
   order (args then result) and the relation edges (result related to each
   list argument).  Each reference joins the active set of its id if that
   set is still warm (within the window); relations merge active sets. *)
let partition_window ~window trace =
  let uf = Uf.create () in
  let active : (int, int) Hashtbl.t = Hashtbl.create 256 in  (* list id -> set idx *)
  let pos = ref 0 in
  let touch id related =
    let p = !pos in
    incr pos;
    let warm_set_of i =
      match Hashtbl.find_opt active i with
      | None -> None
      | Some s ->
        let root = Uf.find uf s in
        if p - uf.Uf.last.(root) <= window then Some root else None
    in
    let own = warm_set_of id in
    let rel = List.filter_map warm_set_of related in
    let chosen =
      match own, rel with
      | None, [] -> Uf.fresh uf p
      | Some s, rel -> List.fold_left (Uf.union uf) s rel
      | None, s :: rest -> List.fold_left (Uf.union uf) s rest
    in
    uf.Uf.size.(chosen) <- uf.Uf.size.(chosen) + 1;
    uf.Uf.last.(chosen) <- max uf.Uf.last.(chosen) p;
    Hashtbl.replace active id chosen;
    chosen
  in
  let set_stream = ref [] in
  let r = ref 0 in
  Array.iter
    (fun code ->
       if Trace.Preprocess.kind code >= 2 then begin
         let n = Trace.Preprocess.list_args code in
         let arg_ids = List.init n (fun j -> Trace.Preprocess.ref_id trace (!r + j)) in
         r := !r + n;
         (* The paper's relation: a reference is related to another when
            one is the car or cdr of the other — i.e. the result of a
            primitive relates to its list arguments.  Arguments are not
            related to each other directly (only through a result that
            combines them). *)
         List.iter (fun id -> set_stream := touch id [] :: !set_stream) arg_ids;
         if Trace.Preprocess.result_is_list code then begin
           set_stream := touch (Trace.Preprocess.ref_id trace !r) arg_ids :: !set_stream;
           incr r
         end
       end)
    trace.Trace.Preprocess.codes;
  (uf, Array.of_list (List.rev !set_stream), !pos)

let stream_length = Trace.Preprocess.ref_count

let collect uf stream_length =
  let sets = ref [] in
  for i = 0 to uf.Uf.len - 1 do
    if Uf.find uf i = i && uf.Uf.size.(i) > 0 then
      sets := { size = uf.Uf.size.(i); first = uf.Uf.first.(i); last = uf.Uf.last.(i) }
              :: !sets
  done;
  { sets = !sets; stream_length }

let partition ?(separation = 0.10) trace =
  let n = stream_length trace in
  let window = max 1 (int_of_float (separation *. float_of_int n)) in
  let uf, _, len = partition_window ~window trace in
  collect uf len

let partition_abs ~window trace =
  let uf, _, len = partition_window ~window:(max 1 window) trace in
  collect uf len

let set_id_stream ?(separation = 0.10) trace =
  let n = stream_length trace in
  let window = max 1 (int_of_float (separation *. float_of_int n)) in
  let uf, stream, _ = partition_window ~window trace in
  (* Resolve each recorded set index to its final root. *)
  Array.map (Uf.find uf) stream

let coverage_curve r =
  let total = float_of_int r.stream_length in
  let sorted = List.sort (fun a b -> compare b.size a.size) r.sets in
  let _, _, points =
    List.fold_left
      (fun (cum, k, acc) s ->
         let cum = cum + s.size in
         (cum, k + 1, (float_of_int (k + 1), float_of_int cum /. total) :: acc))
      (0, 0, []) sorted
  in
  List.rev points

let lifetime_over_sets r =
  let nsets = float_of_int (List.length r.sets) in
  let len = float_of_int (max 1 r.stream_length) in
  let lifetimes =
    List.sort Float.compare
      (List.map (fun s -> 100. *. float_of_int (lifetime s) /. len) r.sets)
  in
  List.mapi (fun i x -> (x, float_of_int (i + 1) /. nsets)) lifetimes

let lifetime_over_refs r =
  let total = float_of_int r.stream_length in
  let len = float_of_int (max 1 r.stream_length) in
  let by_lifetime =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.map (fun s -> (100. *. float_of_int (lifetime s) /. len, s.size)) r.sets)
  in
  let _, points =
    List.fold_left
      (fun (cum, acc) (lt, size) ->
         let cum = cum + size in
         (cum, (lt, float_of_int cum /. total) :: acc))
      (0, []) by_lifetime
  in
  List.rev points

let sets_for_coverage r frac =
  let rec go k = function
    | [] -> k
    | (_, covered) :: rest -> if covered >= frac then k + 1 else go (k + 1) rest
  in
  go 0 (coverage_curve r)
