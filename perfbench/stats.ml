(* Pure arithmetic shared by the measured runs, the span report and the
   self-test: percentiles, interval unions for self time, and guarded
   ratios.  Nothing here reads a clock. *)

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it.  [p] in [0, 1]; an empty array gives 0. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

(* How many samples lie strictly above the [p] percentile. *)
let beyond samples p =
  let v = percentile samples p in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 samples

let median_list xs = percentile (Array.of_list xs) 0.5

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

(* [ratio a b] is [a /. b], and 0 when nothing was counted. *)
let ratio a b = if b = 0. then 0. else a /. b

(* Total length of the union of [(start, stop)] intervals clipped to
   [lo, hi]: the part of a parent span its children cover. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
         let a = Float.max a lo and b = Float.min b hi in
         if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
         match cur with
         | None -> (total, Some (a, b))
         | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
         | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus what its children cover. *)
let self_time ~start ~stop children =
  (stop -. start) -. covered ~lo:start ~hi:stop children
