type cache_config = {
  cache_lines : int;
  cache_line_size : int;
}

type config = {
  table_size : int;
  policy : Lpt.policy;
  arg_prob : float;
  loc_prob : float;
  bind_prob : float;
  read_prob : float;
  seed : int;
  split_counts : bool;
  eager_decrement : bool;
  cache : cache_config option;
}

let default_config =
  { table_size = 2048; policy = Lpt.Compress_one; arg_prob = 0.6; loc_prob = 0.3;
    bind_prob = 0.01; read_prob = 0.01; seed = 1; split_counts = false;
    eager_decrement = false; cache = None }

(* The fingerprint spells out every field so that adding one forces a
   revisit here; bump the leading version when the simulation semantics
   change under an unchanged config. *)
let render_fingerprint c =
  Printf.sprintf
    "simconfig:v1 size=%d policy=%s arg=%h loc=%h bind=%h read=%h seed=%d \
     split=%b eager=%b cache=%s"
    c.table_size
    (match c.policy with Lpt.Compress_one -> "one" | Lpt.Compress_all -> "all")
    c.arg_prob c.loc_prob c.bind_prob c.read_prob c.seed c.split_counts
    c.eager_decrement
    (match c.cache with
     | None -> "none"
     | Some cc -> Printf.sprintf "%d/%d" cc.cache_lines cc.cache_line_size)

(* Sweep loops and the server's cache lookups fingerprint the same few
   configs over and over, so the Printf + MD5 round runs once per
   structural config.  The table is capped and guarded for the threaded
   server's worker pool.  At the cap one cold entry is evicted by a
   second-chance (CLOCK) sweep over the insertion queue — entries
   re-fingerprinted since their last sweep survive, so a sweep's working
   set stays memoized even when a pathological caller churns through
   thousands of distinct configs. *)
type fp_entry = { pair : string * string; mutable hot : bool }

let fp_memo : (config, fp_entry) Hashtbl.t = Hashtbl.create 64
let fp_order : config Queue.t = Queue.create ()
let fp_memo_mutex = Mutex.create ()
let fp_memo_cap = 4096

(* Called with the mutex held and the table at capacity: pop queue
   entries, re-queueing (and cooling) hot ones, until a cold entry is
   evicted.  Terminates within two sweeps of the queue — the first pass
   cools every entry it skips. *)
let fp_evict_one () =
  let evicted = ref false in
  while not !evicted do
    match Queue.take_opt fp_order with
    | None -> evicted := true  (* queue out of sync; nothing to evict *)
    | Some key ->
      (match Hashtbl.find_opt fp_memo key with
       | None -> ()  (* stale queue entry for an already-evicted key *)
       | Some e when e.hot ->
         e.hot <- false;
         Queue.push key fp_order
       | Some _ ->
         Hashtbl.remove fp_memo key;
         evicted := true)
  done

let fingerprint_and_digest c =
  Mutex.lock fp_memo_mutex;
  let cached = Hashtbl.find_opt fp_memo c in
  (match cached with Some e -> e.hot <- true | None -> ());
  Mutex.unlock fp_memo_mutex;
  match cached with
  | Some e -> e.pair
  | None ->
    let fp = render_fingerprint c in
    let pair = (fp, Digest.to_hex (Digest.string fp)) in
    Mutex.lock fp_memo_mutex;
    if not (Hashtbl.mem fp_memo c) then begin
      if Hashtbl.length fp_memo >= fp_memo_cap then fp_evict_one ();
      Hashtbl.replace fp_memo c { pair; hot = false };
      Queue.push c fp_order
    end;
    Mutex.unlock fp_memo_mutex;
    pair

let config_fingerprint c = fst (fingerprint_and_digest c)
let config_digest c = snd (fingerprint_and_digest c)

let fingerprint_memoized c =
  Mutex.lock fp_memo_mutex;
  let r = Hashtbl.mem fp_memo c in
  Mutex.unlock fp_memo_mutex;
  r

type stats = {
  events : int;
  true_overflow : bool;       (** overflow mode was entered at least once *)
  overflow_events : int;      (** primitive events served in overflow mode *)
  peak_lpt : int;
  avg_lpt : float;
  lpt : Lpt.counters;
  heap : Heap_model.counters;
  cache_hits : int;
  cache_misses : int;
  cache_accesses : int;
}

(* Per-event observability: with a registry attached, each primitive
   event records the live-entry count into an occupancy histogram; the
   activity counters are folded in once at the end of the run (they are
   already kept by the LPT/heap), so detached runs pay only one option
   match per event and the simulated stats are bit-identical either
   way — the registry never touches the RNG or the simulation state. *)
let record_run_metrics ~lpt ~heap ~cache ~overflow_entries ~overflow_events reg
    ~events =
  Lpt.record_metrics lpt reg;
  let c name help v = Obs.Metric.Counter.add (Obs.Registry.counter reg ~help name) v in
  c "small_sim_events_total" "primitive events simulated" events;
  c "small_sim_overflow_entries_total" "transitions into LPT-bypass overflow mode"
    overflow_entries;
  c "small_sim_overflow_events_total" "primitive events served in overflow mode"
    overflow_events;
  let h = Heap_model.counters heap in
  c "small_sim_heap_reads_total" "heap-controller object read-ins" h.Heap_model.reads;
  c "small_sim_heap_reclaims_total" "heap reclamations (refcount frees)"
    h.Heap_model.reclaims;
  c "small_sim_heap_cells_reclaimed_total" "heap cells reclaimed"
    h.Heap_model.cells_reclaimed;
  (match cache with
   | None -> ()
   | Some cache ->
     c "small_sim_cache_hits_total" "data-cache hits" (Cache.Lru_cache.hits cache);
     c "small_sim_cache_misses_total" "data-cache misses" (Cache.Lru_cache.misses cache))

let make_occupancy metrics =
  (* a Local accumulator keeps the per-event cost to plain-field writes;
     it is flushed before the end-of-run counter fold *)
  Option.map
    (fun reg ->
       Obs.Metric.Histogram.Local.create
         (Obs.Registry.histogram reg ~help:"live LPT entries sampled per event"
            ~bounds:Obs.Metric.Histogram.default_size_bounds
            "small_sim_lpt_occupancy"))
    metrics

let build_stats ~events ~entered_overflow ~overflow_events ~occupancy_sum ~samples
    ~lpt ~heap ~cache =
  let counters = Lpt.counters lpt in
  {
    events;
    true_overflow = entered_overflow;
    overflow_events;
    peak_lpt = counters.Lpt.peak_live;
    avg_lpt = (if samples = 0 then 0. else occupancy_sum /. float_of_int samples);
    lpt = counters;
    heap = Heap_model.counters heap;
    cache_hits = (match cache with Some c -> Cache.Lru_cache.hits c | None -> 0);
    cache_misses = (match cache with Some c -> Cache.Lru_cache.misses c | None -> 0);
    cache_accesses = (match cache with Some c -> Cache.Lru_cache.accesses c | None -> 0);
  }

(* ---------------------------------------------------------------- *)
(* Reference kernel: the original boxed interpreter over
   [Preprocess.pevent]s.  Kept verbatim as the correctness oracle for
   the flat kernel below — the equivalence battery in the test suite
   and the [sim.hotloop] bench both check byte-identical stats.

   The reference deliberately keeps the original [int64]-boxed
   splitmix64 too: [Util.Rng] has since been rewritten over untagged
   halves, and running the reference on the boxed generator both
   preserves the true before-the-rewrite baseline for the bench and
   cross-validates the rewrite end to end — the two generators must
   emit bit-identical streams for the stats to match. *)

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
  mutable overflow_entries : int;      (* transitions into overflow mode *)
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
  let nps = st.trace.Trace.Preprocess.np_by_id in
  if Array.length nps = 0 then 4
  else begin
    let n, p = nps.(Boxed_rng.int st.rng (Array.length nps)) in
    max 1 (n + p)
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
  | Trace.Preprocess.List _ -> true
  | Trace.Preprocess.Atom _ -> false

let chained_arg = function
  | Trace.Preprocess.List { chained; _ } -> chained
  | Trace.Preprocess.Atom _ -> false

let result_is_list = function
  | Trace.Preprocess.List _ -> true
  | Trace.Preprocess.Atom _ -> false

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

let run_reference ?metrics cfg trace =
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
      entered_overflow = false; overflow_entries = 0 }
  in
  (* resolved once: the hot loop sees a plain option *)
  let occupancy = make_occupancy metrics in
  let events = ref 0 in
  (* Seed the top level with a few read-in bindings. *)
  (try
     for _ = 1 to 8 do
       push_item st (fresh_list st)
     done
   with Lpt.True_overflow ->
     st.overflow_mode <- true;
     st.entered_overflow <- true;
     st.overflow_entries <- st.overflow_entries + 1);
  Array.iter
    (fun (e : Trace.Preprocess.pevent) ->
       match e with
       | Pcall { nargs; _ } -> simulate_call st nargs
       | Preturn _ -> simulate_return st
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
             st.overflow_entries <- st.overflow_entries + 1;
             st.overflow_events <- st.overflow_events + 1;
             st.prev_result <- None
         end;
         st.occupancy_sum <- st.occupancy_sum +. float_of_int (Lpt.live st.lpt);
         st.samples <- st.samples + 1;
         match occupancy with
         | None -> ()
         | Some l ->
           Obs.Metric.Histogram.Local.record l (float_of_int (Lpt.live st.lpt)))
    trace.Trace.Preprocess.events;
  (match occupancy with
   | None -> ()
   | Some l -> Obs.Metric.Histogram.Local.flush l);
  (match metrics with
   | None -> ()
   | Some reg ->
     record_run_metrics ~lpt ~heap ~cache ~overflow_entries:st.overflow_entries
       ~overflow_events:st.overflow_events reg ~events:!events);
  build_stats ~events:!events ~entered_overflow:st.entered_overflow
    ~overflow_events:st.overflow_events ~occupancy_sum:st.occupancy_sum
    ~samples:st.samples ~lpt ~heap ~cache

(* ---------------------------------------------------------------- *)
(* Flat kernel.

   One packed int per trace event carries everything the interpreter
   above extracts from a [pevent] with [List.filter]/[List.map] per
   event: argument selection never looks at a list argument's identity
   (ids reach the simulator only through the chaining flags, already
   folded in by preprocessing), so a primitive reduces to

     bits 0..2   wire kind (0 call / 1 return / 2..6 prim)
     bit  3      result-is-list          (prims; calls: nargs from bit 3)
     bits 4..11  positional argument count
     bits 12..35 list-argument position mask
     bits 36..59 chained position mask

   and the per-id (n, p) table to a plain size array indexed by a
   uniform draw.  State flattens the same way: the binding stack is an
   int array (no per-push [item] box), frames are parallel base/nargs
   arrays under a frame pointer, the previous result is an int with -1
   for "none".  Bernoulli draws compare {!Util.Rng.unit_53} against
   thresholds pre-scaled by 2^53 — the identical predicate, no float
   box.  Steady state allocates nothing; the stats are byte-identical
   to [run_reference] by construction (same RNG draw sequence, same
   LPT/heap/cache calls in the same order). *)

type packed = {
  p_codes : int array;    (* one packed int per trace event *)
  p_sizes : int array;    (* id -> max 1 (n + p), the draw_size table *)
}

let packed_events p = Array.length p.p_codes

let encode_prim ~kind ~arity ~list_mask ~chained_mask ~result_list =
  if arity > 24 then
    invalid_arg "Simulator.pack: primitive arity beyond 24 unsupported";
  kind
  lor (if result_list then 8 else 0)
  lor (arity lsl 4)
  lor (list_mask lsl 12)
  lor (chained_mask lsl 36)

let pack (trace : Trace.Preprocess.t) =
  let codes =
    Array.map
      (fun (e : Trace.Preprocess.pevent) ->
         match e with
         | Pcall { nargs; _ } -> 0 lor (nargs lsl 3)
         | Preturn _ -> 1
         | Pprim { prim; args; result } ->
           let kind =
             match prim with
             | Trace.Event.Car -> 2
             | Trace.Event.Cdr -> 3
             | Trace.Event.Cons -> 4
             | Trace.Event.Rplaca -> 5
             | Trace.Event.Rplacd -> 6
           in
           let arity = List.length args in
           let lmask = ref 0 and cmask = ref 0 in
           List.iteri
             (fun p (a : Trace.Preprocess.arg) ->
                match a with
                | List { chained; _ } ->
                  lmask := !lmask lor (1 lsl p);
                  if chained then cmask := !cmask lor (1 lsl p)
                | Atom _ -> ())
             args;
           encode_prim ~kind ~arity ~list_mask:!lmask ~chained_mask:!cmask
             ~result_list:(result_is_list result))
      trace.Trace.Preprocess.events
  in
  { p_codes = codes;
    p_sizes =
      Array.map (fun (n, p) -> max 1 (n + p)) trace.Trace.Preprocess.np_by_id }

(* Sized once from the chunk headers; position masks are built here,
   so [encode_prim] alone enforces the 24-argument limit. *)
let pack_source src =
  let total = (Trace.Binary.header_stats src).Trace.Binary.h_events in
  let codes = Array.make total 0 in
  let n = ref 0 in
  let push code =
    if !n < total then codes.(!n) <- code;
    incr n
  in
  let sizes =
    Trace.Preprocess.scan_source src
      ~call:(fun ~nargs -> push (0 lor (nargs lsl 3)))
      ~return_:(fun () -> push 1)
      ~prim:(fun ~kind ~nargs ~prev ids ->
          let list_mask = ref 0 and chained_mask = ref 0 in
          for j = 0 to nargs - 1 do
            if ids.(j) >= 0 then begin
              list_mask := !list_mask lor (1 lsl j);
              if ids.(j) = prev then chained_mask := !chained_mask lor (1 lsl j)
            end
          done;
          push
            (encode_prim ~kind ~arity:nargs ~list_mask:!list_mask
               ~chained_mask:!chained_mask ~result_list:(ids.(nargs) >= 0)))
  in
  if !n <> total then
    raise
      (Trace.Binary.Corrupt { offset = 0; reason = "event count changed while reading" });
  { p_codes = codes; p_sizes = sizes }

(* All-float single-field record: flat representation, so updating the
   accumulator stores a raw double instead of boxing one per event. *)
type facc = { mutable acc : float }

type fstate = {
  fcfg : config;
  frng : Util.Rng.t;
  flpt : Lpt.t;
  fheap : Heap_model.t;
  fcache : Cache.Lru_cache.t option;
  fsizes : int array;
  mutable fstack : int array;        (* binding stack: LPT ids *)
  mutable fsp : int;
  mutable fbase : int array;         (* frame bases, newest at ffp-1 *)
  mutable fnargs : int array;
  mutable ffp : int;
  mutable fprev : int;               (* previous result id; -1 = none *)
  (* Bernoulli thresholds, pre-scaled by 2^53 (read-only) *)
  t_arg : float;
  t_arg_loc : float;
  t_read : float;
  t_bind : float;
  mutable fovf : bool;
  mutable fovf_events : int;
  mutable fentered : bool;
  mutable fovf_entries : int;
}

let scale_53 = 9007199254740992.0

let fpush st id =
  if st.fsp = Array.length st.fstack then begin
    let grown = Array.make (2 * st.fsp) (-1) in
    Array.blit st.fstack 0 grown 0 st.fsp;
    st.fstack <- grown
  end;
  Array.unsafe_set st.fstack st.fsp id;
  st.fsp <- st.fsp + 1;
  Lpt.stack_incr st.flpt id

let fdraw_size st =
  let n = Array.length st.fsizes in
  if n = 0 then 4 else Array.unsafe_get st.fsizes (Util.Rng.int st.frng n)

let ffresh st = Lpt.read_in st.flpt ~size:(fdraw_size st)

let freread st slot =
  let fresh = ffresh st in
  Lpt.stack_incr st.flpt fresh;
  let old = Array.unsafe_get st.fstack slot in
  Array.unsafe_set st.fstack slot fresh;
  Lpt.stack_decr st.flpt old;
  fresh

let fselect st chained =
  let prev = st.fprev in
  if chained && prev >= 0 && Lpt.is_live st.flpt prev then prev
  else if st.fsp = 0 then begin
    let id = ffresh st in
    fpush st id;
    id
  end
  else begin
    let framed = st.ffp > 0 in
    let base = if framed then Array.unsafe_get st.fbase (st.ffp - 1) else 0 in
    let nargs = if framed then Array.unsafe_get st.fnargs (st.ffp - 1) else 0 in
    let u = float_of_int (Util.Rng.unit_53 st.frng) in
    let slot =
      if u < st.t_arg && nargs > 0 && base + nargs <= st.fsp then
        base + Util.Rng.int st.frng nargs                 (* a function argument *)
      else if u < st.t_arg_loc && base + nargs < st.fsp then
        base + nargs + Util.Rng.int st.frng (st.fsp - base - nargs)  (* a local *)
      else if base > 0 then Util.Rng.int st.frng base     (* a non-local *)
      else Util.Rng.int st.frng st.fsp
    in
    if float_of_int (Util.Rng.unit_53 st.frng) < st.t_read then freread st slot
    else begin
      let id = Array.unsafe_get st.fstack slot in
      if Lpt.is_live st.flpt id then id
      else freread st slot (* stale binding (shouldn't happen); repair *)
    end
  end

let fbind st id =
  st.fprev <- id;
  if st.fsp > 0 && float_of_int (Util.Rng.unit_53 st.frng) < st.t_bind then begin
    let slot = Util.Rng.int st.frng st.fsp in
    Lpt.stack_incr st.flpt id;
    let old = Array.unsafe_get st.fstack slot in
    Array.unsafe_set st.fstack slot id;
    Lpt.stack_decr st.flpt old
  end
  else fpush st id

let fcache_touch st id =
  match st.fcache with
  | None -> ()
  | Some cache -> ignore (Cache.Lru_cache.access cache (Lpt.address st.flpt id))

let fcall st nargs =
  let base = st.fsp in
  for _ = 1 to nargs do
    let id =
      if st.fsp > 0 then
        Array.unsafe_get st.fstack (Util.Rng.int st.frng st.fsp)
      else ffresh st
    in
    fpush st id
  done;
  let locals = Util.Rng.int st.frng 3 in
  for _ = 1 to locals do
    let id =
      if st.fsp > 0 then
        Array.unsafe_get st.fstack (Util.Rng.int st.frng st.fsp)
      else ffresh st
    in
    fpush st id
  done;
  if st.ffp = Array.length st.fbase then begin
    let gb = Array.make (2 * st.ffp) 0 and gn = Array.make (2 * st.ffp) 0 in
    Array.blit st.fbase 0 gb 0 st.ffp;
    Array.blit st.fnargs 0 gn 0 st.ffp;
    st.fbase <- gb;
    st.fnargs <- gn
  end;
  Array.unsafe_set st.fbase st.ffp base;
  Array.unsafe_set st.fnargs st.ffp nargs;
  st.ffp <- st.ffp + 1

let freturn st =
  if st.ffp > 0 then begin
    st.ffp <- st.ffp - 1;
    let base = Array.unsafe_get st.fbase st.ffp in
    while st.fsp > base do
      st.fsp <- st.fsp - 1;
      Lpt.stack_decr st.flpt (Array.unsafe_get st.fstack st.fsp)
    done;
    if st.fprev >= 0 && not (Lpt.is_live st.flpt st.fprev) then st.fprev <- -1
  end

let rec lowest_bit_pos m i = if m land 1 = 1 then i else lowest_bit_pos (m lsr 1) (i + 1)

let fprim st code =
  let kind = code land 7 in
  let lmask = (code lsr 12) land 0xFFFFFF in
  if kind <= 3 then begin
    (* car / cdr: the first list argument feeds the access *)
    if lmask = 0 then st.fprev <- -1
    else begin
      let cmask = code lsr 36 in
      let a = lowest_bit_pos lmask 0 in
      let id = fselect st ((cmask lsr a) land 1 = 1) in
      fcache_touch st id;
      let c =
        if kind = 2 then Lpt.get_car_i st.flpt id else Lpt.get_cdr_i st.flpt id
      in
      if c >= 0 && code land 8 <> 0 then fbind st c else st.fprev <- -1
    end
  end
  else if kind = 4 then begin
    (* cons: children from positions 0/1 (trace order); selects for any
       further list positions still run, their results discarded, to
       match the reference's List.map over all args *)
    let cmask = code lsr 36 in
    let arity = (code lsr 4) land 0xFF in
    let car =
      if arity >= 1 && lmask land 1 = 1 then fselect st (cmask land 1 = 1)
      else -1
    in
    let cdr =
      if arity >= 2 && lmask land 2 <> 0 then fselect st (cmask land 2 <> 0)
      else -1
    in
    for p = 2 to arity - 1 do
      if (lmask lsr p) land 1 = 1 then
        ignore (fselect st ((cmask lsr p) land 1 = 1))
    done;
    let keep = arity <= 2 in
    let id =
      Lpt.cons_i st.flpt
        ~car:(if keep then car else -1)
        ~cdr:(if keep then cdr else -1)
    in
    fbind st id
  end
  else begin
    (* rplaca / rplacd *)
    if lmask = 0 then st.fprev <- -1
    else begin
      let cmask = code lsr 36 in
      let arity = (code lsr 4) land 0xFF in
      let a = lowest_bit_pos lmask 0 in
      let id = fselect st ((cmask lsr a) land 1 = 1) in
      fcache_touch st id;
      (* the replacement value: a list only if the trace's second
         positional argument was one AND a second list argument exists *)
      let rest = lmask land (lmask - 1) in
      let value =
        if arity >= 2 && lmask land 2 <> 0 && rest <> 0 then begin
          let v = lowest_bit_pos rest 0 in
          fselect st ((cmask lsr v) land 1 = 1)
        end
        else -1
      in
      if kind = 5 then ignore (Lpt.rplaca_i st.flpt id value)
      else ignore (Lpt.rplacd_i st.flpt id value);
      fbind st id
    end
  end

let run_packed ?metrics cfg packed =
  let heap = Heap_model.create ~seed:(cfg.seed * 7919 + 1) () in
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
    { fcfg = cfg; frng = Util.Rng.create ~seed:cfg.seed; flpt = lpt; fheap = heap;
      fcache = cache; fsizes = packed.p_sizes;
      fstack = Array.make 1024 (-1); fsp = 0;
      fbase = Array.make 256 0; fnargs = Array.make 256 0; ffp = 0;
      fprev = -1;
      t_arg = cfg.arg_prob *. scale_53;
      t_arg_loc = (cfg.arg_prob +. cfg.loc_prob) *. scale_53;
      t_read = cfg.read_prob *. scale_53;
      t_bind = cfg.bind_prob *. scale_53;
      fovf = false; fovf_events = 0; fentered = false; fovf_entries = 0 }
  in
  let occupancy = make_occupancy metrics in
  let occ = { acc = 0.0 } in
  let samples = ref 0 in
  let events = ref 0 in
  (* Seed the top level with a few read-in bindings. *)
  (try
     for _ = 1 to 8 do
       fpush st (ffresh st)
     done
   with Lpt.True_overflow ->
     st.fovf <- true;
     st.fentered <- true;
     st.fovf_entries <- st.fovf_entries + 1);
  let codes = packed.p_codes in
  let ncodes = Array.length codes in
  let ovf_exit = (9 * cfg.table_size) / 10 in
  for i = 0 to ncodes - 1 do
    let code = Array.unsafe_get codes i in
    let kind = code land 7 in
    if kind = 0 then fcall st (code lsr 3)
    else if kind = 1 then freturn st
    else begin
      incr events;
      (* In overflow mode the EP bypasses the LPT, working in raw heap
         addresses (§4.3.2.3); the mode ends once table space frees up
         through returns. *)
      if st.fovf then begin
        st.fovf_events <- st.fovf_events + 1;
        st.fprev <- -1;
        if Lpt.live st.flpt <= ovf_exit then st.fovf <- false
      end
      else begin
        try fprim st code
        with Lpt.True_overflow ->
          st.fovf <- true;
          st.fentered <- true;
          st.fovf_entries <- st.fovf_entries + 1;
          st.fovf_events <- st.fovf_events + 1;
          st.fprev <- -1
      end;
      occ.acc <- occ.acc +. float_of_int (Lpt.live st.flpt);
      incr samples;
      match occupancy with
      | None -> ()
      | Some l -> Obs.Metric.Histogram.Local.record l (float_of_int (Lpt.live st.flpt))
    end
  done;
  (match occupancy with
   | None -> ()
   | Some l -> Obs.Metric.Histogram.Local.flush l);
  (match metrics with
   | None -> ()
   | Some reg ->
     record_run_metrics ~lpt ~heap ~cache ~overflow_entries:st.fovf_entries
       ~overflow_events:st.fovf_events reg ~events:!events);
  build_stats ~events:!events ~entered_overflow:st.fentered
    ~overflow_events:st.fovf_events ~occupancy_sum:occ.acc ~samples:!samples
    ~lpt ~heap ~cache

let run ?metrics cfg trace = run_packed ?metrics cfg (pack trace)

let run_source ?metrics cfg src = run_packed ?metrics cfg (pack_source src)

let lpt_hit_rate (stats : stats) =
  let total = stats.lpt.Lpt.hits + stats.lpt.Lpt.misses in
  if total = 0 then 0. else float_of_int stats.lpt.Lpt.hits /. float_of_int total

let cache_hit_rate (stats : stats) =
  if stats.cache_accesses = 0 then 0.
  else float_of_int stats.cache_hits /. float_of_int stats.cache_accesses

let overflow_free (stats : stats) =
  (not stats.true_overflow) && stats.lpt.Lpt.pseudo_overflows = 0

let min_table_size ?(jobs = 1) ?metrics cfg packed =
  (* Double until overflow-free, then bisect down to the knee.  With
     [jobs] > 1 the probe runs go through [Util.Parallel]: the doubling
     phase probes a batch of sizes at once, and the bisection phase
     speculatively evaluates the next levels of its decision tree in
     parallel — both walk the same decision sequence as the sequential
     search, so the result is identical for every [jobs]. *)
  (* Probes share the registry: with [jobs] > 1 several domains record
     into the same counters at once — safe by construction, and the
     search decisions never read the metrics, so the result is
     registry-independent. *)
  (* Every probe replays the caller's one packed trace: immutable int
     arrays, shared across probe domains. *)
  let probe size = run_packed ?metrics { cfg with table_size = size } packed in
  let rec grow size =
    if jobs <= 1 then begin
      let stats = probe size in
      if overflow_free stats then (size, stats) else grow (2 * size)
    end
    else begin
      let batch = List.init jobs (fun i -> size * (1 lsl i)) in
      let stats = Util.Parallel.map ~domains:jobs probe batch in
      match
        List.find_opt
          (fun (_, st) -> overflow_free st)
          (List.combine batch stats)
      with
      | Some (sz, st) -> (sz, st)
      | None -> grow (size * (1 lsl jobs))
    end
  in
  let hi, hi_stats = grow 64 in
  (* All candidate midpoints of the next [depth] bisection levels: the
     root midpoint plus, recursively, the midpoints of both halves. *)
  let rec candidates depth lo hi acc =
    if depth = 0 || hi - lo <= 1 then acc
    else begin
      let mid = (lo + hi) / 2 in
      candidates (depth - 1) lo mid (candidates (depth - 1) mid hi (mid :: acc))
    end
  in
  let depth =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    max 1 (log2 (jobs + 1))
  in
  let rec bisect lo hi hi_stats =
    (* invariant: hi is overflow-free, lo is not (or lo = hi) *)
    if hi - lo <= 1 then (hi, hi_stats)
    else if jobs <= 1 then begin
      let mid = (lo + hi) / 2 in
      let stats = probe mid in
      if overflow_free stats then bisect lo mid stats else bisect mid hi hi_stats
    end
    else begin
      let sizes = List.sort_uniq compare (candidates depth lo hi []) in
      let results =
        List.combine sizes (Util.Parallel.map ~domains:jobs probe sizes)
      in
      (* Resolve [depth] sequential decisions from the precomputed runs. *)
      let rec walk d lo hi hi_stats =
        if d = 0 || hi - lo <= 1 then bisect lo hi hi_stats
        else begin
          let mid = (lo + hi) / 2 in
          let stats = List.assoc mid results in
          if overflow_free stats then walk (d - 1) lo mid stats
          else walk (d - 1) mid hi hi_stats
        end
      in
      walk depth lo hi hi_stats
    end
  in
  bisect (hi / 2) hi hi_stats
