module D = Sexp.Datum

type output =
  | Stats_out of {
      events : int;
      primitives : int;
      functions : int;
      max_depth : int;
      distinct_lists : int;
      mix : (Trace.Event.prim * int) list;
    }
  | Analyze_out of {
      separation : float;
      distinct_lists : int;
      mean_n : float;
      mean_p : float;
      sets : int;
      stream_length : int;
      sets_for_50 : int;
      sets_for_80 : int;
      sets_for_95 : int;
      lru_hits : (int * float) list;
      car_chain_pct : float;
      cdr_chain_pct : float;
    }
  | Simulate_out of Core.Simulator.stats
  | Knee_out of {
      size : int;
      stats : Core.Simulator.stats;
    }

(* ---- sources ---- *)

(* A workload's digest is memoised by the registry, over the encoding it
   keeps.  File digests are over the raw bytes (cheap, and sensitive to
   the format on disk — re-encoding a trace re-keys it). *)
let workload name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None -> invalid_arg ("Server.Exec: unknown workload " ^ name)

let trace_digest = function
  | Job.Trace_file p -> Digest.to_hex (Digest.file p)
  | Job.Workload w -> Workloads.Registry.digest (workload w)

exception Source_changed of string

let () =
  Printexc.register_printer (function
    | Source_changed p -> Some (p ^ ": trace file changed after it was hashed")
    | _ -> None)

let source_stamp = function
  | Job.Trace_file p -> Some (Trace.Io.stamp p)
  | Job.Workload _ -> None

(* [preprocessed ~expect s] is the flat form of a job's trace.  A
   workload's is the registry's, built once per process.  A file is
   read once into the worker's kept buffer: a binary trace is scanned
   off its source (a lookup when these bytes were scanned before, by
   any job), a sexp-lines one (no random-access form)
   preprocessed through its capture.  With [expect], a file whose
   stamp differs is refused before any of it is used. *)
let preprocessed ~expect = function
  | Job.Workload w -> Workloads.Registry.preprocessed (workload w)
  | Job.Trace_file p ->
    Trace.Io.with_path p @@ fun stamp loaded ->
    (match expect with
     | Some e when e <> stamp -> raise (Source_changed p)
     | Some _ | None -> ());
    match loaded with
    | Trace.Io.Binary_source src -> Trace.Preprocess.run_source src
    | Trace.Io.Sexp_capture c -> Trace.Preprocess.run c

let preprocessed_of_source = preprocessed ~expect:None

let stats (pre : Trace.Preprocess.t) =
  let st = pre.stats in
  Stats_out
    { events = Array.length pre.codes;
      primitives = st.primitives;
      functions = st.functions;
      max_depth = st.max_depth;
      distinct_lists = pre.distinct_lists;
      mix = (Analysis.Prim_mix.analyze pre).counts }

(* ---- execution ---- *)

let check should_stop = if should_stop () then raise Exit

let run ?(should_stop = fun () -> false) ~expect (job : Job.t) =
  check should_stop;
  match job.spec with
  | Job.Stats -> stats (preprocessed ~expect job.source)
  | Job.Analyze { separation } ->
    let pre = preprocessed ~expect job.source in
    check should_stop;
    let np = Analysis.Np_stats.analyze pre in
    let part = Analysis.List_sets.partition ~separation pre in
    check should_stop;
    let stream = Analysis.List_sets.set_id_stream ~separation pre in
    let lru = Analysis.Lru_stack.analyze stream in
    check should_stop;
    let ch = Analysis.Chaining.analyze pre in
    Analyze_out
      { separation;
        distinct_lists = pre.Trace.Preprocess.distinct_lists;
        mean_n = Analysis.Np_stats.mean_n np;
        mean_p = Analysis.Np_stats.mean_p np;
        sets = List.length part.Analysis.List_sets.sets;
        stream_length = part.Analysis.List_sets.stream_length;
        sets_for_50 = Analysis.List_sets.sets_for_coverage part 0.5;
        sets_for_80 = Analysis.List_sets.sets_for_coverage part 0.8;
        sets_for_95 = Analysis.List_sets.sets_for_coverage part 0.95;
        lru_hits =
          List.map (fun k -> (k, Analysis.Lru_stack.hit_fraction lru k)) [ 1; 2; 4; 8 ];
        car_chain_pct = Analysis.Chaining.car_pct ch;
        cdr_chain_pct = Analysis.Chaining.cdr_pct ch }
  | Job.Simulate config ->
    let packed = Core.Simulator.pack (preprocessed ~expect job.source) in
    check should_stop;
    Simulate_out (Core.Simulator.run_packed config packed)
  | Job.Knee config ->
    let packed = Core.Simulator.pack (preprocessed ~expect job.source) in
    check should_stop;
    let size, stats = Core.Simulator.min_table_size config packed in
    Knee_out { size; stats }

(* ---- sexp (cache) form ----

   Outputs are stored as assoc-style clause lists; floats go through %h
   so that of_sexp . to_sexp is the identity. *)

exception Bad of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt

let fint = D.int
let ffloat f = D.str (Printf.sprintf "%h" f)
let fbool b = D.int (if b then 1 else 0)

let clause key args = D.list (D.sym key :: args)

let clauses_of d =
  List.map
    (function
      | D.Cons (D.Sym key, args) when D.is_list args -> (key, D.to_list args)
      | d -> bad "expected a clause, got %s" (Sexp.to_string d))
    (D.to_list d)

let get1 cls key =
  match List.assoc_opt key cls with
  | Some [ v ] -> v
  | Some _ -> bad "clause %s wants one value" key
  | None -> bad "missing clause %s" key

let gint cls key = match get1 cls key with
  | D.Int n -> n
  | d -> bad "%s: expected int, got %s" key (Sexp.to_string d)

let gfloat cls key = match get1 cls key with
  | D.Str s ->
    (match float_of_string_opt s with
     | Some f -> f
     | None -> bad "%s: bad float %s" key s)
  | d -> bad "%s: expected float, got %s" key (Sexp.to_string d)

let gbool cls key = gint cls key <> 0

let lpt_counters_to_sexp (c : Core.Lpt.counters) =
  D.list
    [ fint c.refops; fint c.ep_refops; fint c.gets; fint c.frees; fint c.hits;
      fint c.misses; fint c.pseudo_overflows; fint c.compressions;
      fint c.cycle_recoveries; fint c.peak_live; fint c.max_refcount;
      fint c.max_stack_count ]

let lpt_counters_of_sexp d : Core.Lpt.counters =
  match List.map (function D.Int n -> n | _ -> bad "lpt: ints expected") (D.to_list d) with
  | [ refops; ep_refops; gets; frees; hits; misses; pseudo_overflows;
      compressions; cycle_recoveries; peak_live; max_refcount; max_stack_count ] ->
    { refops; ep_refops; gets; frees; hits; misses; pseudo_overflows;
      compressions; cycle_recoveries; peak_live; max_refcount; max_stack_count }
  | _ -> bad "lpt: wrong arity"

let heap_counters_to_sexp (c : Core.Heap_model.counters) =
  D.list [ fint c.reads; fint c.splits; fint c.merges; fint c.reclaims;
           fint c.cells_reclaimed ]

let heap_counters_of_sexp d : Core.Heap_model.counters =
  match List.map (function D.Int n -> n | _ -> bad "heap: ints expected") (D.to_list d) with
  | [ reads; splits; merges; reclaims; cells_reclaimed ] ->
    { reads; splits; merges; reclaims; cells_reclaimed }
  | _ -> bad "heap: wrong arity"

let sim_stats_clauses (s : Core.Simulator.stats) =
  [ clause "events" [ fint s.events ];
    clause "true-overflow" [ fbool s.true_overflow ];
    clause "overflow-events" [ fint s.overflow_events ];
    clause "peak-lpt" [ fint s.peak_lpt ];
    clause "avg-lpt" [ ffloat s.avg_lpt ];
    clause "lpt" [ lpt_counters_to_sexp s.lpt ];
    clause "heap" [ heap_counters_to_sexp s.heap ];
    clause "cache-hits" [ fint s.cache_hits ];
    clause "cache-misses" [ fint s.cache_misses ];
    clause "cache-accesses" [ fint s.cache_accesses ] ]

let sim_stats_of_clauses cls : Core.Simulator.stats =
  { events = gint cls "events";
    true_overflow = gbool cls "true-overflow";
    overflow_events = gint cls "overflow-events";
    peak_lpt = gint cls "peak-lpt";
    avg_lpt = gfloat cls "avg-lpt";
    lpt = lpt_counters_of_sexp (get1 cls "lpt");
    heap = heap_counters_of_sexp (get1 cls "heap");
    cache_hits = gint cls "cache-hits";
    cache_misses = gint cls "cache-misses";
    cache_accesses = gint cls "cache-accesses" }

let output_to_sexp = function
  | Stats_out o ->
    D.list
      (D.sym "stats-out"
       :: [ clause "events" [ fint o.events ];
            clause "primitives" [ fint o.primitives ];
            clause "functions" [ fint o.functions ];
            clause "max-depth" [ fint o.max_depth ];
            clause "distinct-lists" [ fint o.distinct_lists ];
            clause "mix"
              (List.map
                 (fun (p, n) -> D.list [ D.sym (Trace.Event.prim_name p); fint n ])
                 o.mix) ])
  | Analyze_out o ->
    D.list
      (D.sym "analyze-out"
       :: [ clause "separation" [ ffloat o.separation ];
            clause "distinct-lists" [ fint o.distinct_lists ];
            clause "mean-n" [ ffloat o.mean_n ];
            clause "mean-p" [ ffloat o.mean_p ];
            clause "sets" [ fint o.sets ];
            clause "stream-length" [ fint o.stream_length ];
            clause "sets-for-50" [ fint o.sets_for_50 ];
            clause "sets-for-80" [ fint o.sets_for_80 ];
            clause "sets-for-95" [ fint o.sets_for_95 ];
            clause "lru-hits"
              (List.map (fun (k, f) -> D.list [ fint k; ffloat f ]) o.lru_hits);
            clause "car-chain" [ ffloat o.car_chain_pct ];
            clause "cdr-chain" [ ffloat o.cdr_chain_pct ] ])
  | Simulate_out s -> D.list (D.sym "simulate-out" :: sim_stats_clauses s)
  | Knee_out { size; stats } ->
    D.list (D.sym "knee-out" :: clause "size" [ fint size ] :: sim_stats_clauses stats)

let output_of_sexp d =
  try
    match d with
    | D.Cons (D.Sym "stats-out", rest) ->
      let cls = clauses_of rest in
      let mix =
        match List.assoc_opt "mix" cls with
        | None -> bad "missing clause mix"
        | Some rows ->
          List.map
            (fun row ->
               match row with
               | D.Cons (D.Sym p, D.Cons (D.Int n, D.Nil)) ->
                 (match Trace.Event.prim_of_name p with
                  | Some p -> (p, n)
                  | None -> bad "mix: unknown primitive %s" p)
               | d -> bad "mix: bad row %s" (Sexp.to_string d))
            rows
      in
      Ok
        (Stats_out
           { events = gint cls "events"; primitives = gint cls "primitives";
             functions = gint cls "functions"; max_depth = gint cls "max-depth";
             distinct_lists = gint cls "distinct-lists"; mix })
    | D.Cons (D.Sym "analyze-out", rest) ->
      let cls = clauses_of rest in
      let lru_hits =
        match List.assoc_opt "lru-hits" cls with
        | None -> bad "missing clause lru-hits"
        | Some rows ->
          List.map
            (fun row ->
               match row with
               | D.Cons (D.Int k, D.Cons (D.Str f, D.Nil)) ->
                 (match float_of_string_opt f with
                  | Some f -> (k, f)
                  | None -> bad "lru-hits: bad float %s" f)
               | d -> bad "lru-hits: bad row %s" (Sexp.to_string d))
            rows
      in
      Ok
        (Analyze_out
           { separation = gfloat cls "separation";
             distinct_lists = gint cls "distinct-lists";
             mean_n = gfloat cls "mean-n"; mean_p = gfloat cls "mean-p";
             sets = gint cls "sets"; stream_length = gint cls "stream-length";
             sets_for_50 = gint cls "sets-for-50";
             sets_for_80 = gint cls "sets-for-80";
             sets_for_95 = gint cls "sets-for-95";
             lru_hits;
             car_chain_pct = gfloat cls "car-chain";
             cdr_chain_pct = gfloat cls "cdr-chain" })
    | D.Cons (D.Sym "simulate-out", rest) ->
      Ok (Simulate_out (sim_stats_of_clauses (clauses_of rest)))
    | D.Cons (D.Sym "knee-out", rest) ->
      let cls = clauses_of rest in
      Ok (Knee_out { size = gint cls "size"; stats = sim_stats_of_clauses cls })
    | d -> Error ("unknown output form " ^ Sexp.to_string d)
  with Bad msg -> Error msg

(* ---- JSON (wire) form ---- *)

let sim_stats_json (s : Core.Simulator.stats) =
  Json.Obj
    [ ("events", Json.Int s.events);
      ("true_overflow", Json.Bool s.true_overflow);
      ("overflow_events", Json.Int s.overflow_events);
      ("peak_lpt", Json.Int s.peak_lpt);
      ("avg_lpt", Json.Float s.avg_lpt);
      ("lpt",
       Json.Obj
         [ ("refops", Json.Int s.lpt.Core.Lpt.refops);
           ("ep_refops", Json.Int s.lpt.Core.Lpt.ep_refops);
           ("gets", Json.Int s.lpt.Core.Lpt.gets);
           ("frees", Json.Int s.lpt.Core.Lpt.frees);
           ("hits", Json.Int s.lpt.Core.Lpt.hits);
           ("misses", Json.Int s.lpt.Core.Lpt.misses);
           ("pseudo_overflows", Json.Int s.lpt.Core.Lpt.pseudo_overflows);
           ("compressions", Json.Int s.lpt.Core.Lpt.compressions);
           ("cycle_recoveries", Json.Int s.lpt.Core.Lpt.cycle_recoveries);
           ("peak_live", Json.Int s.lpt.Core.Lpt.peak_live);
           ("max_refcount", Json.Int s.lpt.Core.Lpt.max_refcount);
           ("max_stack_count", Json.Int s.lpt.Core.Lpt.max_stack_count) ]);
      ("heap",
       Json.Obj
         [ ("reads", Json.Int s.heap.Core.Heap_model.reads);
           ("splits", Json.Int s.heap.Core.Heap_model.splits);
           ("merges", Json.Int s.heap.Core.Heap_model.merges);
           ("reclaims", Json.Int s.heap.Core.Heap_model.reclaims);
           ("cells_reclaimed", Json.Int s.heap.Core.Heap_model.cells_reclaimed) ]);
      ("cache_hits", Json.Int s.cache_hits);
      ("cache_misses", Json.Int s.cache_misses);
      ("cache_accesses", Json.Int s.cache_accesses) ]

let output_to_json = function
  | Stats_out o ->
    Json.Obj
      [ ("kind", Json.Str "stats");
        ("events", Json.Int o.events);
        ("primitives", Json.Int o.primitives);
        ("functions", Json.Int o.functions);
        ("max_depth", Json.Int o.max_depth);
        ("distinct_lists", Json.Int o.distinct_lists);
        ("mix",
         Json.Obj
           (List.map (fun (p, n) -> (Trace.Event.prim_name p, Json.Int n)) o.mix)) ]
  | Analyze_out o ->
    Json.Obj
      [ ("kind", Json.Str "analyze");
        ("separation", Json.Float o.separation);
        ("distinct_lists", Json.Int o.distinct_lists);
        ("mean_n", Json.Float o.mean_n);
        ("mean_p", Json.Float o.mean_p);
        ("sets", Json.Int o.sets);
        ("stream_length", Json.Int o.stream_length);
        ("sets_for_50", Json.Int o.sets_for_50);
        ("sets_for_80", Json.Int o.sets_for_80);
        ("sets_for_95", Json.Int o.sets_for_95);
        ("lru_hits",
         Json.List
           (List.map
              (fun (k, f) ->
                 Json.Obj [ ("depth", Json.Int k); ("fraction", Json.Float f) ])
              o.lru_hits));
        ("car_chain_pct", Json.Float o.car_chain_pct);
        ("cdr_chain_pct", Json.Float o.cdr_chain_pct) ]
  | Simulate_out s ->
    (match sim_stats_json s with
     | Json.Obj fields -> Json.Obj (("kind", Json.Str "simulate") :: fields)
     | j -> j)
  | Knee_out { size; stats } ->
    (match sim_stats_json stats with
     | Json.Obj fields ->
       Json.Obj (("kind", Json.Str "knee") :: ("knee_size", Json.Int size) :: fields)
     | j -> j)
