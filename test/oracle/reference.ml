(* The boxed reference kernel: the simulator's original interpreter,
   kept as the correctness oracle for the flat kernel
   ({!Core.Simulator.run_packed}) — the equivalence battery in the test
   suite and the [sim.hotloop] bench both check byte-identical stats.
   It walks one boxed event per code (variant events, list-of-variant
   arguments), keeps the binding stack as an array of one-field records
   and the frame list as a cons list, and uses the hashtable-backed
   heap occupancy set ([Heap_model.create ~legacy_occupancy:true]).

   The reference deliberately keeps the original [int64]-boxed
   splitmix64 too: [Util.Rng] has since been rewritten over untagged
   halves, and running the reference on the boxed generator both
   preserves the true before-the-rewrite baseline for the bench and
   cross-validates the rewrite end to end — the two generators must
   emit bit-identical streams for the stats to match. *)

open Core
open Core.Simulator

module Boxed_rng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  (* splitmix64 step *)
  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

  let bool t ~p = float t < p
end

(* One boxed event per code of the flat form. *)
type arg = Atom | List of { chained : bool }

type pevent =
  | Pprim of { prim : Trace.Event.prim; args : arg list; result : arg }
  | Pcall of { nargs : int }
  | Preturn

let event code =
  let module P = Trace.Preprocess in
  match P.kind code with
  | 0 -> Pcall { nargs = P.call_nargs code }
  | 1 -> Preturn
  | kind ->
    if P.is_wide code then invalid_arg "Reference: primitive arity beyond 24 unsupported";
    let bit m j = (m lsr j) land 1 = 1 in
    let prim : Trace.Event.prim =
      match kind with 2 -> Car | 3 -> Cdr | 4 -> Cons | 5 -> Rplaca | _ -> Rplacd
    in
    let args =
      List.init (P.arity code) (fun j ->
          if bit (P.list_mask code) j then List { chained = bit (P.chained_mask code) j }
          else Atom)
    in
    Pprim { prim; args; result = (if P.result_is_list code then List { chained = false } else Atom) }

(* One stack item: a binding whose value is a list object (LPT id). *)
type item = { mutable id : int }

type state = {
  cfg : config;
  rng : Boxed_rng.t;
  lpt : Lpt.t;
  heap : Heap_model.t;
  cache : Cache.Lru_cache.t option;
  trace : Trace.Preprocess.t;
  (* the binding stack: a growable array of items, plus frame markers *)
  mutable stack : item array;
  mutable sp : int;
  mutable frames : (int * int) list;   (* (frame base, nargs) newest first *)
  mutable prev_result : int option;    (* LPT id of last primitive result *)
  mutable occupancy_sum : float;
  mutable samples : int;
  mutable overflow_mode : bool;        (* LPT bypassed after true overflow *)
  mutable overflow_events : int;
  mutable entered_overflow : bool;
}

let push_item st id =
  if st.sp = Array.length st.stack then begin
    let grown = Array.make (2 * st.sp) { id = -1 } in
    Array.blit st.stack 0 grown 0 st.sp;
    st.stack <- grown
  end;
  st.stack.(st.sp) <- { id };
  st.sp <- st.sp + 1;
  Lpt.stack_incr st.lpt id

(* Draw a size for a freshly read list from the trace's own n/p data. *)
let draw_size st =
  let np = st.trace.Trace.Preprocess.np in
  if Array.length np = 0 then 4
  else begin
    let i = 2 * Boxed_rng.int st.rng (Array.length np / 2) in
    max 1 (np.(i) + np.(i + 1))
  end

let fresh_list st =
  Lpt.read_in st.lpt ~size:(draw_size st)

(* Replace the binding of [item] with a freshly read list (ReadProb). *)
let reread st item =
  let fresh = fresh_list st in
  Lpt.stack_incr st.lpt fresh;
  let old = item.id in
  item.id <- fresh;
  Lpt.stack_decr st.lpt old;
  fresh

(* Argument selection (§5.2.1): chained -> previous result; otherwise a
   function argument / local / non-local picked by probability, possibly
   re-read. *)
let select_arg st ~chained =
  match st.prev_result with
  | Some id when chained && Lpt.is_live st.lpt id -> id
  | _ ->
    if st.sp = 0 then begin
      (* empty stack: conjure a top-level binding *)
      let id = fresh_list st in
      push_item st id;
      id
    end
    else begin
      let base, nargs = match st.frames with f :: _ -> f | [] -> (0, 0) in
      let pick lo hi =
        (* inclusive bounds; assumes lo <= hi *)
        st.stack.(lo + Boxed_rng.int st.rng (hi - lo + 1))
      in
      let u = Boxed_rng.float st.rng in
      let item =
        if u < st.cfg.arg_prob && nargs > 0 && base + nargs <= st.sp then
          pick base (base + nargs - 1)                  (* a function argument *)
        else if u < st.cfg.arg_prob +. st.cfg.loc_prob && base + nargs < st.sp then
          pick (base + nargs) (st.sp - 1)               (* a local *)
        else if base > 0 then pick 0 (base - 1)         (* a non-local *)
        else pick 0 (st.sp - 1)
      in
      if Boxed_rng.bool st.rng ~p:st.cfg.read_prob then reread st item
      else if Lpt.is_live st.lpt item.id then item.id
      else reread st item (* stale binding (shouldn't happen); repair *)
    end

(* Result binding: BindProb -> overwrite a random stack variable, else
   push on top of the stack. *)
let bind_result st id =
  st.prev_result <- Some id;
  if st.sp > 0 && Boxed_rng.bool st.rng ~p:st.cfg.bind_prob then begin
    let item = st.stack.(Boxed_rng.int st.rng st.sp) in
    Lpt.stack_incr st.lpt id;
    let old = item.id in
    item.id <- id;
    Lpt.stack_decr st.lpt old
  end
  else push_item st id

let cache_touch st id =
  match st.cache with
  | None -> ()
  | Some cache -> ignore (Cache.Lru_cache.access cache (Lpt.address st.lpt id))

let is_list_arg = function
  | List _ -> true
  | Atom -> false

let chained_arg = function
  | List { chained } -> chained
  | Atom -> false

let result_is_list = is_list_arg

let simulate_prim st (prim : Trace.Event.prim) args result =
  (* Map the trace's list arguments onto simulated objects. *)
  let list_args = List.filter is_list_arg args in
  let select a = select_arg st ~chained:(chained_arg a) in
  match prim, list_args with
  | Trace.Event.Car, (a :: _) ->
    let id = select a in
    cache_touch st id;
    (match Lpt.get_car st.lpt id with
     | Lpt.Hit c | Lpt.Miss c ->
       if result_is_list result then bind_result st c
       else st.prev_result <- None
     | Lpt.Hit_atom -> st.prev_result <- None)
  | Trace.Event.Cdr, (a :: _) ->
    let id = select a in
    cache_touch st id;
    (match Lpt.get_cdr st.lpt id with
     | Lpt.Hit c | Lpt.Miss c ->
       if result_is_list result then bind_result st c
       else st.prev_result <- None
     | Lpt.Hit_atom -> st.prev_result <- None)
  | Trace.Event.Cons, _ ->
    (* args in trace order; atoms contribute no LPT child *)
    let children =
      List.map (fun a -> if is_list_arg a then Some (select a) else None) args
    in
    let car, cdr =
      match children with
      | [ c; d ] -> (c, d)
      | [ c ] -> (c, None)
      | _ -> (None, None)
    in
    let id = Lpt.cons st.lpt ~car ~cdr in
    bind_result st id
  | Trace.Event.Rplaca, (a :: rest) ->
    let id = select a in
    cache_touch st id;
    (* the replacement value: a list only if the trace's second argument
       was one *)
    let value =
      match args with
      | _ :: v :: _ when is_list_arg v ->
        (match rest with v' :: _ -> Some (select v') | [] -> None)
      | _ -> None
    in
    ignore (Lpt.rplaca st.lpt id value);
    bind_result st id
  | Trace.Event.Rplacd, (a :: rest) ->
    let id = select a in
    cache_touch st id;
    let value =
      match args with
      | _ :: v :: _ when is_list_arg v ->
        (match rest with v' :: _ -> Some (select v') | [] -> None)
      | _ -> None
    in
    ignore (Lpt.rplacd st.lpt id value);
    bind_result st id
  | (Trace.Event.Car | Trace.Event.Cdr | Trace.Event.Rplaca | Trace.Event.Rplacd), [] ->
    (* the traced argument was an atom (e.g. car of nil): no list activity *)
    st.prev_result <- None

let simulate_call st nargs =
  let base = st.sp in
  (* Each argument is a binding to something older on the stack. *)
  for _ = 1 to nargs do
    let id =
      if st.sp > 0 then st.stack.(Boxed_rng.int st.rng st.sp).id else fresh_list st
    in
    push_item st id
  done;
  (* A random number of locals, similarly bound. *)
  let locals = Boxed_rng.int st.rng 3 in
  for _ = 1 to locals do
    let id =
      if st.sp > 0 then st.stack.(Boxed_rng.int st.rng st.sp).id else fresh_list st
    in
    push_item st id
  done;
  st.frames <- (base, nargs) :: st.frames

let simulate_return st =
  match st.frames with
  | [] -> ()  (* return below trace start: ignore *)
  | (base, _) :: rest ->
    (* Pop every item of the frame, decrementing its reference. *)
    while st.sp > base do
      st.sp <- st.sp - 1;
      Lpt.stack_decr st.lpt st.stack.(st.sp).id
    done;
    st.frames <- rest;
    (* The previous result may have been popped with the frame. *)
    (match st.prev_result with
     | Some id when not (Lpt.is_live st.lpt id) -> st.prev_result <- None
     | _ -> ())

let run_reference cfg (trace : Trace.Preprocess.t) =
  let heap = Heap_model.create ~legacy_occupancy:true ~seed:(cfg.seed * 7919 + 1) () in
  let lpt =
    Lpt.create ~size:cfg.table_size ~policy:cfg.policy ~split_counts:cfg.split_counts
      ~eager_decrement:cfg.eager_decrement ~heap ~seed:(cfg.seed * 104729 + 3) ()
  in
  let cache =
    Option.map
      (fun c -> Cache.Lru_cache.create ~lines:c.cache_lines ~line_size:c.cache_line_size)
      cfg.cache
  in
  let st =
    { cfg; rng = Boxed_rng.create ~seed:cfg.seed; lpt; heap; cache; trace;
      stack = Array.make 1024 { id = -1 }; sp = 0; frames = []; prev_result = None;
      occupancy_sum = 0.; samples = 0; overflow_mode = false; overflow_events = 0;
      entered_overflow = false }
  in
  let events = ref 0 in
  (* Seed the top level with a few read-in bindings. *)
  (try
     for _ = 1 to 8 do
       push_item st (fresh_list st)
     done
   with Lpt.True_overflow ->
     st.overflow_mode <- true;
     st.entered_overflow <- true);
  Array.iter
    (fun code ->
       match event code with
       | Pcall { nargs } -> simulate_call st nargs
       | Preturn -> simulate_return st
       | Pprim { prim; args; result } ->
         incr events;
         (* In overflow mode the EP bypasses the LPT, working in raw heap
            addresses (§4.3.2.3); the mode ends once table space frees up
            through returns. *)
         if st.overflow_mode then begin
           st.overflow_events <- st.overflow_events + 1;
           st.prev_result <- None;
           if Lpt.live st.lpt <= (9 * cfg.table_size) / 10 then
             st.overflow_mode <- false
         end
         else begin
           try simulate_prim st prim args result
           with Lpt.True_overflow ->
             st.overflow_mode <- true;
             st.entered_overflow <- true;
             st.overflow_events <- st.overflow_events + 1;
             st.prev_result <- None
         end;
         st.occupancy_sum <- st.occupancy_sum +. float_of_int (Lpt.live st.lpt);
         st.samples <- st.samples + 1)
    trace.codes;
  let counters = Lpt.counters lpt in
  { events = !events;
    true_overflow = st.entered_overflow;
    overflow_events = st.overflow_events;
    peak_lpt = counters.Lpt.peak_live;
    avg_lpt =
      (if st.samples = 0 then 0. else st.occupancy_sum /. float_of_int st.samples);
    lpt = counters;
    heap = Heap_model.counters heap;
    cache_hits = (match cache with Some c -> Cache.Lru_cache.hits c | None -> 0);
    cache_misses = (match cache with Some c -> Cache.Lru_cache.misses c | None -> 0);
    cache_accesses = (match cache with Some c -> Cache.Lru_cache.accesses c | None -> 0) }

