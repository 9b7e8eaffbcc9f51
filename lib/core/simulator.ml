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
(* Flat kernel.

   The kernel replays the codes of the flat form (see
   {!Trace.Preprocess}, which owns their layout): argument selection
   never looks at a list argument's identity — ids reach the simulator
   only through the chaining flags, already folded in by
   preprocessing — so a primitive reduces to its wire kind, argument
   count, list and chained position masks and result-is-list, and the
   per-id (n, p) table to a size drawn by a uniform index.  State is
   flat too: the binding stack is an int array, frames are parallel
   base/nargs arrays under a frame pointer, the previous result is an
   int with -1 for "none".  Bernoulli draws compare
   {!Util.Rng.unit_53} against thresholds pre-scaled by 2^53.  Steady
   state allocates nothing. *)

module P = Trace.Preprocess

type packed = {
  p_codes : int array;    (* one code per trace event *)
  p_np : int array;       (* id i's (n, p) at 2i: the draw_size table *)
}

let packed_events p = Array.length p.p_codes

let pack (t : Trace.Preprocess.t) = { p_codes = t.codes; p_np = t.np }

(* All-float single-field record: flat representation, so updating the
   accumulator stores a raw double instead of boxing one per event. *)
type facc = { mutable acc : float }

type fstate = {
  fcfg : config;
  frng : Util.Rng.t;
  flpt : Lpt.t;
  fheap : Heap_model.t;
  fcache : Cache.Lru_cache.t option;
  fnp : int array;
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

(* A freshly read list's size, drawn from the trace's own n/p data *)
let fdraw_size st =
  let n = Array.length st.fnp / 2 in
  if n = 0 then 4
  else begin
    let i = 2 * Util.Rng.int st.frng n in
    max 1 (Array.unsafe_get st.fnp i + Array.unsafe_get st.fnp (i + 1))
  end

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
  let kind = P.kind code in
  let lmask = P.list_mask code in
  if kind <= 3 then begin
    (* car / cdr: the first list argument feeds the access *)
    if lmask = 0 then st.fprev <- -1
    else begin
      let cmask = P.chained_mask code in
      let a = lowest_bit_pos lmask 0 in
      let id = fselect st ((cmask lsr a) land 1 = 1) in
      fcache_touch st id;
      let c =
        if kind = 2 then Lpt.get_car_i st.flpt id else Lpt.get_cdr_i st.flpt id
      in
      if c >= 0 && P.result_is_list code then fbind st c else st.fprev <- -1
    end
  end
  else if kind = 4 then begin
    (* cons: children from positions 0/1 (trace order); selects for any
       further list positions still run, their results discarded, as
       the boxed reference kernel (test/oracle) selects every list
       argument *)
    let cmask = P.chained_mask code in
    let arity = P.arity code in
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
      let cmask = P.chained_mask code in
      let arity = P.arity code in
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
      fcache = cache; fnp = packed.p_np;
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
    let kind = P.kind code in
    if kind = 0 then fcall st (P.call_nargs code)
    else if kind = 1 then freturn st
    else begin
      if P.is_wide code then
        invalid_arg "Simulator: primitive arity beyond 24 unsupported";
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
