(* Direct LRU simulations, the independent references the one-pass
   stack-distance analysis ({!Analysis.Lru_stack}) is checked against. *)

let bump distances d =
  Hashtbl.replace distances d
    (1 + Option.value ~default:0 (Hashtbl.find_opt distances d))

(* Move-to-front list; the position of an item at access time is its stack
   distance.  O(stream * distinct) — kept as the independent reference the
   Fenwick version is cross-checked against. *)
let analyze_naive stream : Analysis.Lru_stack.result =
  let distances = Hashtbl.create 64 in
  let cold = ref 0 in
  let stack = ref [] in
  Array.iter
    (fun x ->
       let rec remove depth acc = function
         | [] -> None
         | y :: rest ->
           if y = x then Some (depth, List.rev_append acc rest)
           else remove (depth + 1) (y :: acc) rest
       in
       match remove 1 [] !stack with
       | Some (depth, rest) ->
         bump distances depth;
         stack := x :: rest
       | None ->
         incr cold;
         stack := x :: !stack)
    stream;
  { distances; cold = !cold; total = Array.length stream }

(* Explicit LRU buffer as a depth-bounded index array kept in recency
   order: a linear scan finds the item, an overlapping blit moves it to
   the front.  Same O(stream * size) bound as the old list walk but no
   allocation and contiguous traversal. *)
let naive_hits stream ~size =
  if size <= 0 then 0
  else begin
    let stack = Array.make size 0 in
    let depth = ref 0 in
    let hits = ref 0 in
    Array.iter
      (fun x ->
         let pos = ref (-1) in
         (try
            for i = 0 to !depth - 1 do
              if stack.(i) = x then begin
                pos := i;
                raise Exit
              end
            done
          with Exit -> ());
         if !pos >= 0 then begin
           incr hits;
           Array.blit stack 0 stack 1 !pos
         end
         else begin
           let d = min size (!depth + 1) in
           Array.blit stack 0 stack 1 (d - 1);
           depth := d
         end;
         stack.(0) <- x)
      stream;
    !hits
  end
