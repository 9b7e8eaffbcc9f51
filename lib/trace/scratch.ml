type ('a, 'b) buf = ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t

type ('a, 'b) lease = { mutable buf : ('a, 'b) buf }

(* One cell per domain: the kept buffer, and whether a use is running
   (a nested or interleaved use then gets a buffer of its own). *)
type ('a, 'b) cell = {
  mutable kept : ('a, 'b) buf option;
  mutable lent : bool;
}

type ('a, 'b) t = {
  kind : ('a, 'b) Bigarray.kind;
  elt_bytes : int;
  cell : ('a, 'b) cell Domain.DLS.key;
}

(* Every pool's byte count, registered when the pool is created (at
   module initialisation), for {!retained_bytes}. *)
let pools : (unit -> int) list ref = ref []

let kept_length t =
  let c = Domain.DLS.get t.cell in
  match c.kept with
  | Some b when not c.lent -> Bigarray.Array1.dim b
  | _ -> 0

let create kind =
  let t =
    { kind; elt_bytes = Bigarray.kind_size_in_bytes kind;
      cell = Domain.DLS.new_key (fun () -> { kept = None; lent = false }) }
  in
  pools := (fun () -> t.elt_bytes * kept_length t) :: !pools;
  t

let alloc t n = Bigarray.Array1.create t.kind Bigarray.c_layout n

let retained_bytes () = List.fold_left (fun acc bytes -> acc + bytes ()) 0 !pools

(* The kept buffer serves a need of [n] elements when it is large
   enough and [n] is at least a quarter of it; otherwise it is dropped
   and a buffer of exactly [n] takes its place, so one huge input does
   not pin its memory in every domain that once served it. *)
let use t n f =
  let c = Domain.DLS.get t.cell in
  if c.lent then f { buf = alloc t n }
  else begin
    c.lent <- true;
    let buf =
      match c.kept with
      | Some b when Bigarray.Array1.dim b >= n && 4 * n >= Bigarray.Array1.dim b -> b
      | _ ->
        c.kept <- None;
        alloc t n
    in
    let l = { buf } in
    Fun.protect
      ~finally:(fun () ->
          c.kept <- Some l.buf;
          c.lent <- false)
      (fun () -> f l)
  end
