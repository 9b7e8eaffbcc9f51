(* Every table and figure of the thesis's evaluation, regenerated from
   our own workload traces and simulators.  Each section prints the same
   rows/series the thesis reports; EXPERIMENTS.md records the comparison
   against the published numbers. *)

let registry : (string * string * (unit -> unit)) list ref = ref []

let register name description fn = registry := (name, description, fn) :: !registry

let all () = List.rev !registry

(* ---------- Chapter 3 ---------- *)

let () =
  register "fig3.1" "Execution frequencies of primitive Lisp functions" @@ fun () ->
  let rows =
    List.map
      (fun w ->
         let mix = Analysis.Prim_mix.analyze (Workloads.Registry.preprocessed w) in
         let p prim = Context.pct1 (Analysis.Prim_mix.pct mix prim) in
         [ w.Workloads.Registry.name; p Trace.Event.Car; p Trace.Event.Cdr;
           p Trace.Event.Cons; p Trace.Event.Rplaca; p Trace.Event.Rplacd;
           Context.int_s mix.Analysis.Prim_mix.total ])
      (Context.chapter3_suite ())
  in
  Util.Series.print_rows
    ~title:"Fig 3.1 — primitive mix per trace (% of traced primitives)"
    ~header:[ "trace"; "car%"; "cdr%"; "cons%"; "rplaca%"; "rplacd%"; "total" ]
    rows

let () =
  register "table3.1" "Average values of n and p" @@ fun () ->
  let rows =
    List.map
      (fun w ->
         let np = Analysis.Np_stats.analyze (Context.preprocessed w) in
         [ w.Workloads.Registry.name;
           Context.pct (Analysis.Np_stats.mean_n np);
           Context.pct (Analysis.Np_stats.mean_p np) ])
      (Context.chapter3_suite ())
  in
  Util.Series.print_rows ~title:"Table 3.1 — average n and p per trace"
    ~header:[ "trace"; "mean n"; "mean p" ] rows

let () =
  register "fig3.3" "Distribution of n and p over lists" @@ fun () ->
  let series_of extract label =
    List.map
      (fun w ->
         let np = Analysis.Np_stats.analyze (Context.preprocessed w) in
         Util.Series.make ~label:(w.Workloads.Registry.name ^ label)
           (List.filteri (fun i _ -> i mod 3 = 0) (extract np)))
      (Context.chapter3_suite ())
  in
  Util.Series.print_ascii ~title:"Fig 3.3a — cumulative distribution of n over lists"
    (series_of Analysis.Np_stats.n_cumulative "");
  Util.Series.print_ascii ~title:"Fig 3.3b — cumulative distribution of p over lists"
    (series_of Analysis.Np_stats.p_cumulative "")

let partition_all separation =
  Util.Parallel.map
    (fun w ->
       (w.Workloads.Registry.name,
        Analysis.List_sets.partition ~separation (Context.preprocessed w)))
    (Context.chapter3_suite ())

let () =
  register "fig3.4" "Distribution of lists over list sets (coverage)" @@ fun () ->
  let parts = partition_all 0.10 in
  let series =
    List.map
      (fun (name, r) ->
         let pts =
           List.filter (fun (k, _) -> k <= 100.) (Analysis.List_sets.coverage_curve r)
         in
         Util.Series.make ~label:name pts)
      parts
  in
  Util.Series.print_ascii
    ~title:"Fig 3.4 — cumulative reference coverage vs number of list sets (10% sep)"
    series;
  Util.Series.print_rows
    ~title:"Fig 3.4 — list sets needed to cover 50% / 80% / 95% of references"
    ~header:[ "trace"; "sets"; "for 50%"; "for 80%"; "for 95%" ]
    (List.map
       (fun (name, r) ->
          [ name; Context.int_s (List.length r.Analysis.List_sets.sets);
            Context.int_s (Analysis.List_sets.sets_for_coverage r 0.5);
            Context.int_s (Analysis.List_sets.sets_for_coverage r 0.8);
            Context.int_s (Analysis.List_sets.sets_for_coverage r 0.95) ])
       parts)

let () =
  register "fig3.5" "Distribution of list-set lifetimes over list sets" @@ fun () ->
  let parts = partition_all 0.10 in
  Util.Series.print_ascii
    ~title:"Fig 3.5 — cumulative fraction of list sets vs lifetime (% of trace)"
    (List.map
       (fun (name, r) ->
          Util.Series.make ~label:name (Analysis.List_sets.lifetime_over_sets r))
       parts);
  Util.Series.print_rows
    ~title:"Fig 3.5 — fraction of list sets below lifetime thresholds"
    ~header:[ "trace"; "<10% life"; "<60% life"; ">90% life" ]
    (List.map
       (fun (name, r) ->
          let frac below =
            let sets = r.Analysis.List_sets.sets in
            let len = float_of_int (max 1 r.Analysis.List_sets.stream_length) in
            let n =
              List.length
                (List.filter
                   (fun s ->
                      100. *. float_of_int (Analysis.List_sets.lifetime s) /. len
                      < below)
                   sets)
            in
            float_of_int n /. float_of_int (max 1 (List.length sets))
          in
          [ name; Context.pct (100. *. frac 10.); Context.pct (100. *. frac 60.);
            Context.pct (100. *. (1. -. frac 90.)) ])
       parts)

let () =
  register "fig3.6" "Distribution of list-set lifetimes over references" @@ fun () ->
  let parts = partition_all 0.10 in
  Util.Series.print_ascii
    ~title:"Fig 3.6 — cumulative fraction of references vs their set's lifetime"
    (List.map
       (fun (name, r) ->
          Util.Series.make ~label:name (Analysis.List_sets.lifetime_over_refs r))
       parts)

let () =
  register "fig3.7" "List-set LRU stack distances" @@ fun () ->
  let rows, series =
    List.split
      (Util.Parallel.map
         (fun w ->
            let stream =
              Analysis.List_sets.set_id_stream ~separation:0.10
                (Context.preprocessed w)
            in
            let lru = Analysis.Lru_stack.analyze stream in
            let name = w.Workloads.Registry.name in
            let frac k = Analysis.Lru_stack.hit_fraction lru k in
            ( [ name; Context.pct (100. *. frac 1); Context.pct (100. *. frac 2);
                Context.pct (100. *. frac 4); Context.pct (100. *. frac 8) ],
              Util.Series.make ~label:name (Analysis.Lru_stack.curve lru ~max_depth:12) ))
         (Context.chapter3_suite ()))
  in
  Util.Series.print_ascii
    ~title:"Fig 3.7 — cumulative list-set accesses vs LRU stack depth" series;
  Util.Series.print_rows ~title:"Fig 3.7 — captured accesses at stack depths (%)"
    ~header:[ "trace"; "depth 1"; "depth 2"; "depth 4"; "depth 8" ] rows

let () =
  register "table3.2" "Percentage of CxR calls inside a function chain" @@ fun () ->
  Util.Series.print_rows
    ~title:"Table 3.2 — % of car/cdr calls that occurred inside a function chain"
    ~header:[ "trace"; "CAR%"; "CDR%" ]
    (List.map
       (fun w ->
          let r = Analysis.Chaining.analyze (Context.preprocessed w) in
          [ w.Workloads.Registry.name; Context.pct (Analysis.Chaining.car_pct r);
            Context.pct (Analysis.Chaining.cdr_pct r) ])
       (Context.chapter3_suite ()))

let () =
  register "fig3.8-10" "Sensitivity: varying separation constraint (slang)" @@ fun () ->
  let pre = Context.pre "slang" in
  let seps = [ 0.05; 0.10; 0.25; 0.50; 1.00 ] in
  let parts =
    Util.Parallel.map (fun s -> (s, Analysis.List_sets.partition ~separation:s pre)) seps
  in
  Util.Series.print_rows
    ~title:"Figs 3.8-3.10 — slang list-set partition vs separation constraint"
    ~header:[ "separation"; "sets"; "for 80%"; "median life%"; "refs in >50% life" ]
    (List.map
       (fun (s, r) ->
          let len = float_of_int (max 1 r.Analysis.List_sets.stream_length) in
          let lifetimes =
            List.sort Float.compare
              (List.map
                 (fun set -> 100. *. float_of_int (Analysis.List_sets.lifetime set) /. len)
                 r.Analysis.List_sets.sets)
          in
          let median =
            match lifetimes with
            | [] -> 0.
            | l -> List.nth l (List.length l / 2)
          in
          let refs_long =
            List.fold_left
              (fun acc set ->
                 if 100. *. float_of_int (Analysis.List_sets.lifetime set) /. len > 50.
                 then acc + set.Analysis.List_sets.size
                 else acc)
              0 r.Analysis.List_sets.sets
          in
          [ Printf.sprintf "%.0f%%" (100. *. s);
            Context.int_s (List.length r.Analysis.List_sets.sets);
            Context.int_s (Analysis.List_sets.sets_for_coverage r 0.8);
            Context.pct median;
            Context.pct
              (100. *. float_of_int refs_long /. float_of_int r.Analysis.List_sets.stream_length) ])
       parts);
  Util.Series.print_ascii
    ~title:"Figs 3.8 — slang coverage curves under different separations"
    (List.map
       (fun (s, r) ->
          Util.Series.make ~label:(Printf.sprintf "%.0f%%" (100. *. s))
            (List.filter (fun (k, _) -> k <= 60.) (Analysis.List_sets.coverage_curve r)))
       parts)

let () =
  register "fig3.11-13" "Sensitivity: fixed absolute separation constraint" @@ fun () ->
  (* the window is 10% of the *shortest* trace, applied to all *)
  let suite = Context.chapter5_suite () in
  let shortest =
    List.fold_left
      (fun acc w ->
         min acc
           (Trace.Preprocess.ref_count (Context.preprocessed w)))
      max_int suite
  in
  let window = max 1 (shortest / 10) in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf
         "Figs 3.11-3.13 — fixed separation window of %d references (10%% of shortest)"
         window)
    ~header:[ "trace"; "refs"; "sets"; "for 80%"; "window as % of trace" ]
    (Util.Parallel.map
       (fun w ->
          let pre = Context.preprocessed w in
          let refs = Trace.Preprocess.ref_count pre in
          let r = Analysis.List_sets.partition_abs ~window pre in
          [ w.Workloads.Registry.name; Context.int_s refs;
            Context.int_s (List.length r.Analysis.List_sets.sets);
            Context.int_s (Analysis.List_sets.sets_for_coverage r 0.8);
            Context.pct (100. *. float_of_int window /. float_of_int refs) ])
       suite)

(* ---------- Chapter 5 ---------- *)

let () =
  register "table5.1" "Content of the four simulation traces" @@ fun () ->
  Util.Series.print_rows
    ~title:"Table 5.1 — trace content (user functions, primitives, max call depth)"
    ~header:[ "trace"; "functions"; "primitives"; "max depth" ]
    (List.map
       (fun w ->
          let st = Trace.Capture.stats (Workloads.Registry.trace w) in
          [ w.Workloads.Registry.name; Context.int_s st.Trace.Capture.functions;
            Context.int_s st.Trace.Capture.primitives;
            Context.int_s st.Trace.Capture.max_depth ])
       (Context.chapter5_suite ()))

let () =
  register "fig5.1" "Peak LPT usage vs table size (the knee curve)" @@ fun () ->
  let traces = [ "plagen"; "slang"; "editor" ] in
  List.iter
    (fun name ->
       let k = Context.knee name in
       let sizes =
         List.sort_uniq compare
           [ max 8 (k / 4); max 8 (k / 2); max 8 (3 * k / 4); k; 2 * k; 4 * k ]
       in
       let rows =
         List.map
           (fun (size, stats) ->
              [ Context.int_s size; Context.int_s stats.Core.Simulator.peak_lpt;
                (if stats.Core.Simulator.true_overflow then "TRUE OVERFLOW"
                 else if stats.Core.Simulator.lpt.Core.Lpt.pseudo_overflows > 0 then
                   Printf.sprintf "%d pseudo" stats.Core.Simulator.lpt.Core.Lpt.pseudo_overflows
                 else "clean") ])
           (Context.sweep sizes name)
       in
       Util.Series.print_rows
         ~title:(Printf.sprintf "Fig 5.1 — %s: peak LPT usage vs size (knee at %d)" name k)
         ~header:[ "table size"; "peak usage"; "overflow" ] rows)
    traces

let () =
  register "fig5.2" "Maximum LPT occupancy levels over seeds" @@ fun () ->
  let seeds = [ 1; 7; 13; 23; 42; 77; 101; 137 ] in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf
         "Fig 5.2 — knee (max occupancy) intervals over %d random access patterns"
         (List.length seeds))
    ~header:[ "trace"; "min knee"; "max knee" ]
    (List.map
       (fun w ->
          let knees = Context.seed_knees w.Workloads.Registry.name seeds in
          [ w.Workloads.Registry.name;
            Context.int_s (List.fold_left min max_int knees);
            Context.int_s (List.fold_left max 0 knees) ])
       (Context.chapter5_suite ()))

let () =
  register "fig5.3" "LPT behaviour under the two pseudo-overflow policies" @@ fun () ->
  List.iter
    (fun name ->
       let pre = Context.pre name in
       let k = Context.knee name in
       let sizes =
         List.sort_uniq compare
           [ max 8 (k / 2); max 8 (5 * k / 8); max 8 (3 * k / 4); max 8 (7 * k / 8); k ]
       in
       let run policy size =
         Core.Simulator.run
           { Core.Simulator.default_config with table_size = size; policy } pre
       in
       Util.Series.print_rows
         ~title:(Printf.sprintf "Fig 5.3 — %s: average LPT occupancy by policy" name)
         ~header:[ "size"; "Compress-One avg"; "Compress-All avg"; "C-One ovf"; "C-All ovf" ]
         (Util.Parallel.map
            (fun size ->
               let one = run Core.Lpt.Compress_one size in
               let all = run Core.Lpt.Compress_all size in
               [ Context.int_s size;
                 Context.pct one.Core.Simulator.avg_lpt;
                 Context.pct all.Core.Simulator.avg_lpt;
                 Context.int_s one.Core.Simulator.lpt.Core.Lpt.pseudo_overflows;
                 Context.int_s all.Core.Simulator.lpt.Core.Lpt.pseudo_overflows ])
            sizes))
    [ "slang"; "editor" ]

let () =
  register "table5.2" "LPT activity (Refops, Gets, Frees, RecRefops)" @@ fun () ->
  Util.Series.print_rows
    ~title:
      "Table 5.2 — reference-count traffic: lazy child decrement (Refops) vs naive recursive (RecRefops)"
    ~header:[ "trace"; "Refops"; "Gets"; "Frees"; "RecRefops"; "increase" ]
    (Util.Parallel.map
       (fun w ->
          let pre = Context.preprocessed w in
          let lazy_ = Core.Simulator.run Core.Simulator.default_config pre in
          let eager =
            Core.Simulator.run
              { Core.Simulator.default_config with eager_decrement = true } pre
          in
          let refops = lazy_.Core.Simulator.lpt.Core.Lpt.refops in
          let recrefops = eager.Core.Simulator.lpt.Core.Lpt.refops in
          [ w.Workloads.Registry.name; Context.int_s refops;
            Context.int_s lazy_.Core.Simulator.lpt.Core.Lpt.gets;
            Context.int_s lazy_.Core.Simulator.lpt.Core.Lpt.frees;
            Context.int_s recrefops;
            Printf.sprintf "+%.0f%%"
              (100. *. (float_of_int recrefops /. float_of_int (max 1 refops) -. 1.)) ])
       (Context.chapter5_suite ()))

let () =
  register "table5.3" "Evaluation of split reference counts" @@ fun () ->
  Util.Series.print_rows
    ~title:
      "Table 5.3 — LP-side refcount ops: all counts in the LPT (Then) vs stack counts in the EP (Now)"
    ~header:[ "trace"; "Refops Then"; "Refops Now"; "reduction"; "MaxCount Then"; "MaxCount Now" ]
    (Util.Parallel.map
       (fun w ->
          let pre = Context.preprocessed w in
          let plain = Core.Simulator.run Core.Simulator.default_config pre in
          let split =
            Core.Simulator.run
              { Core.Simulator.default_config with split_counts = true } pre
          in
          let then_ = plain.Core.Simulator.lpt.Core.Lpt.refops in
          let now = split.Core.Simulator.lpt.Core.Lpt.refops in
          [ w.Workloads.Registry.name; Context.int_s then_; Context.int_s now;
            Printf.sprintf "%.1fx" (float_of_int then_ /. float_of_int (max 1 now));
            Context.int_s plain.Core.Simulator.lpt.Core.Lpt.max_refcount;
            Context.int_s split.Core.Simulator.lpt.Core.Lpt.max_refcount ])
       (Context.chapter5_suite ()))

let table5_4_sizes name =
  (* the paper's comparison sizes sit below the knee, where both
     structures are under capacity pressure *)
  let k = Context.knee name in
  List.sort_uniq compare [ max 16 (k / 4); max 16 (k / 2); max 16 (3 * k / 4) ]

let () =
  register "table5.4" "Comparison with a data cache (equal entries, unit lines)" @@ fun () ->
  let rows =
    List.concat_map
      (fun w ->
         let name = w.Workloads.Registry.name in
         let pre = Context.preprocessed w in
         Util.Parallel.map
           (fun size ->
              let stats =
                Core.Simulator.run
                  { Core.Simulator.default_config with
                    table_size = size;
                    cache = Some { Core.Simulator.cache_lines = size; cache_line_size = 1 } }
                  pre
              in
              [ name; Context.int_s size;
                Context.int_s stats.Core.Simulator.lpt.Core.Lpt.misses;
                Context.pct (100. *. Core.Simulator.lpt_hit_rate stats);
                Context.int_s stats.Core.Simulator.cache_misses;
                Context.pct (100. *. Core.Simulator.cache_hit_rate stats);
                Printf.sprintf "%.2f"
                  (float_of_int stats.Core.Simulator.cache_misses
                   /. float_of_int (max 1 stats.Core.Simulator.lpt.Core.Lpt.misses));
                (if stats.Core.Simulator.overflow_events > 0 then
                   Printf.sprintf "(%d ovf evts)" stats.Core.Simulator.overflow_events
                 else "") ])
           (table5_4_sizes name))
      (Context.chapter5_suite ())
  in
  Util.Series.print_rows
    ~title:"Table 5.4 — LPT vs fully associative LRU data cache (line = one cell)"
    ~header:[ "trace"; "size"; "LPT misses"; "LPT hit%"; "cache misses"; "cache hit%"; "miss ratio"; "" ]
    rows

let () =
  register "fig5.4" "Hit rates for LPT and data cache (slang sweep)" @@ fun () ->
  let pre = Context.pre "slang" in
  let k = Context.knee "slang" in
  let sizes =
    List.sort_uniq compare
      [ max 16 (k / 4); max 16 (k / 2); max 16 (3 * k / 4); k; 3 * k / 2; 2 * k ]
  in
  let points =
    Util.Parallel.map
      (fun size ->
         let stats =
           Core.Simulator.run
             { Core.Simulator.default_config with
               table_size = size;
               cache = Some { Core.Simulator.cache_lines = size; cache_line_size = 1 } }
             pre
         in
         (size, stats))
      sizes
  in
  Util.Series.print_ascii ~title:"Fig 5.4 — slang: hit rate vs LPT/cache size"
    [ Util.Series.make ~label:"LPT"
        (List.map
           (fun (s, st) -> (float_of_int s, 100. *. Core.Simulator.lpt_hit_rate st))
           points);
      Util.Series.make ~label:"cache"
        (List.map
           (fun (s, st) -> (float_of_int s, 100. *. Core.Simulator.cache_hit_rate st))
           points) ];
  Util.Series.print_rows ~title:"Fig 5.4 — slang hit rates by size"
    ~header:[ "size"; "LPT hit%"; "cache hit%" ]
    (List.map
       (fun (s, st) ->
          [ Context.int_s s; Context.pct (100. *. Core.Simulator.lpt_hit_rate st);
            Context.pct (100. *. Core.Simulator.cache_hit_rate st) ])
       points)

let () =
  register "fig5.5" "Cache-miss / LPT-miss ratio vs cache line size" @@ fun () ->
  (* the modified model of §5.2.5: cache entries are half the size of LPT
     entries (twice the cells for the same total size), line sizes 1-16 *)
  let traces = [ "lyra"; "slang"; "editor" ] in
  List.iter
    (fun name ->
       let pre = Context.pre name in
       let k = Context.knee name in
       let sizes = List.sort_uniq compare [ k; 2 * k ] in
       let runs =
         List.concat_map (fun size -> List.map (fun line -> (size, line)) [ 1; 2; 4; 8; 16 ])
           sizes
       in
       let rows =
         Util.Parallel.map
           (fun (size, line) ->
              let cells = 2 * size in
              let stats =
                Core.Simulator.run
                  { Core.Simulator.default_config with
                    table_size = size;
                    cache =
                      Some
                        { Core.Simulator.cache_lines = max 1 (cells / line);
                          cache_line_size = line } }
                  pre
              in
              let ratio =
                float_of_int stats.Core.Simulator.cache_misses
                /. float_of_int (max 1 stats.Core.Simulator.lpt.Core.Lpt.misses)
              in
              [ Context.int_s size; Context.int_s line; Context.pct ratio ])
           runs
       in
       Util.Series.print_rows
         ~title:
           (Printf.sprintf
              "Fig 5.5 — %s: cache/LPT miss ratio vs line size (half-size cache entries)"
              name)
         ~header:[ "LPT size"; "line size"; "miss ratio" ] rows)
    traces

let () =
  register "table5.5" "Sensitivity to the probability parameters (slang)" @@ fun () ->
  let pre = Context.pre "slang" in
  (* run just under the knee so the statistics remain parameter-sensitive *)
  let base =
    { Core.Simulator.default_config with
      table_size = max 64 (4 * Context.knee "slang" / 5) }
  in
  let variants =
    [ ("Control", base);
      ("HiArg", { base with arg_prob = 0.85; loc_prob = 0.125 });
      ("HiLoc", { base with arg_prob = 0.30; loc_prob = 0.60 });
      ("HiRead", { base with read_prob = 0.03 });
      ("HiBind", { base with bind_prob = 0.03 }) ]
  in
  let stats =
    Util.Parallel.map (fun (label, cfg) -> (label, Core.Simulator.run cfg pre)) variants
  in
  let row name f = name :: List.map (fun (_, st) -> f st) stats in
  Util.Series.print_rows
    ~title:"Table 5.5 — sensitivity of the simulation to the probability parameters"
    ~header:("statistic" :: List.map fst stats)
    [ row "Ave LPT count" (fun st -> Context.pct st.Core.Simulator.avg_lpt);
      row "Max LPT count" (fun st -> Context.int_s st.Core.Simulator.peak_lpt);
      row "LPT hits" (fun st -> Context.int_s st.Core.Simulator.lpt.Core.Lpt.hits);
      row "Max refcount" (fun st -> Context.int_s st.Core.Simulator.lpt.Core.Lpt.max_refcount);
      row "Refops" (fun st -> Context.int_s st.Core.Simulator.lpt.Core.Lpt.refops) ]

let () =
  register "sec5.3.1" "Ordered traversals: the guaranteed 75% hit rate" @@ fun () ->
  let samples =
    [ "(a b c (d e) f g)"; "(((a b) c d) e f g)"; "(a (b (c (d e) f) g))" ]
  in
  let big = Sexp.Datum.of_ints (List.init 500 (fun i -> i)) in
  Util.Series.print_rows
    ~title:"§5.3.1 — ordered traversal through the LPT: hits/misses vs prediction"
    ~header:[ "list"; "order"; "hits"; "misses"; "predicted"; "hit rate" ]
    (List.concat_map
       (fun src ->
          let d = Sexp.parse src in
          let pm, ph = Core.Traversal.predicted d in
          List.map
            (fun (oname, order) ->
               let r = Core.Traversal.simulate ~order d in
               [ src; oname; Context.int_s r.Core.Traversal.hits;
                 Context.int_s r.Core.Traversal.misses;
                 Printf.sprintf "%d/%d" ph pm;
                 Context.pct (100. *. r.Core.Traversal.hit_rate) ])
            [ ("pre", Sexp.Tree.Pre); ("in", Sexp.Tree.In); ("post", Sexp.Tree.Post) ])
       samples
     @ [ (let r = Core.Traversal.simulate ~order:Sexp.Tree.In big in
          [ "(0 1 ... 499)"; "in"; Context.int_s r.Core.Traversal.hits;
            Context.int_s r.Core.Traversal.misses; "-";
            Context.pct (100. *. r.Core.Traversal.hit_rate) ]) ])

(* ---------- ablations ---------- *)

let () =
  register "ablation.freelist" "Free-list discipline: LIFO stack vs FIFO queue" @@ fun () ->
  (* §4.3.2.1 argues for a free *stack* so the most recently freed entry
     is reused first, minimising the window in which lazily-deferred
     children occupy space.  Measure cell-footprint of a churning
     allocator under both disciplines. *)
  let churn discipline =
    let s = Heap.Store.create ~capacity:4096 in
    Heap.Store.set_discipline s discipline;
    let rng = Util.Rng.create ~seed:5 in
    let held = ref [] in
    let distinct = Hashtbl.create 256 in
    for _ = 1 to 20_000 do
      if Util.Rng.bool rng ~p:0.55 || !held = [] then begin
        let a = Heap.Store.alloc s ~car:Heap.Word.Nil ~cdr:Heap.Word.Nil in
        Hashtbl.replace distinct a ();
        held := a :: !held
      end
      else begin
        match !held with
        | a :: rest ->
          Heap.Store.release s a;
          held := rest
        | [] -> ()
      end
    done;
    Hashtbl.length distinct
  in
  Util.Series.print_rows
    ~title:"Ablation — distinct cells touched by a churning allocator (smaller = hotter reuse)"
    ~header:[ "discipline"; "distinct cells" ]
    [ [ "LIFO stack"; Context.int_s (churn Heap.Store.Lifo) ];
      [ "FIFO queue"; Context.int_s (churn Heap.Store.Fifo) ] ]

let () =
  register "ablation.binding" "Environment strategies: deep vs shallow vs value cache" @@ fun () ->
  let run strategy =
    let i = Lisp.Interp.create ~strategy () in
    Lisp.Prelude.load i;
    let w = Context.workload "editor" in
    Lisp.Interp.provide_input i w.Workloads.Registry.input;
    ignore (Lisp.Interp.run_program i w.Workloads.Registry.source);
    Lisp.Env.counters (Lisp.Interp.env i)
  in
  Util.Series.print_rows
    ~title:"Ablation — name lookup cost on the editor workload (§2.3.2)"
    ~header:[ "strategy"; "lookups"; "probes"; "cache hits"; "binds" ]
    (List.map
       (fun (name, strategy) ->
          let c = run strategy in
          [ name; Context.int_s c.Lisp.Env.lookups; Context.int_s c.Lisp.Env.probes;
            Context.int_s c.Lisp.Env.cache_hits; Context.int_s c.Lisp.Env.binds ])
       [ ("deep", Lisp.Env.Deep); ("shallow", Lisp.Env.Shallow);
         ("value-cache", Lisp.Env.Value_cache) ])

let () =
  register "ablation.repr" "List representation space costs on real lists" @@ fun () ->
  (* encode the distinct lists of the editor trace under each scheme *)
  let w = Context.workload "editor" in
  let capture = Workloads.Registry.trace w in
  let module Dtbl = Hashtbl in
  let seen = Dtbl.create 256 in
  Array.iter
    (fun (e : Trace.Event.t) ->
       match e with
       | Prim { args; _ } ->
         List.iter
           (fun (a : Sexp.Datum.t) ->
              match a with
              | Cons _ when Sexp.Datum.is_list a && Sexp.Metrics.n a > 0 ->
                (try
                   let eps_ok = Repr.Eps.encode a in
                   ignore eps_ok;
                   Dtbl.replace seen a ()
                 with Invalid_argument _ -> ())
              | _ -> ())
           args
       | Call _ | Return _ -> ())
    (Trace.Capture.events capture);
  let totals = Array.make 5 0 in
  let count = ref 0 in
  Dtbl.iter
    (fun d () ->
       if !count < 400 then begin
         incr count;
         let s = Repr.Cost.summarize d in
         totals.(0) <- totals.(0) + s.Repr.Cost.two_pointer_bits;
         totals.(1) <- totals.(1) + s.Repr.Cost.cdr_coded_bits;
         totals.(2) <- totals.(2) + s.Repr.Cost.linked_vector_bits;
         totals.(3) <- totals.(3) + s.Repr.Cost.cdar_bits;
         totals.(4) <- totals.(4) + s.Repr.Cost.eps_bits
       end)
    seen;
  Util.Series.print_rows
    ~title:
      (Printf.sprintf "Ablation — space for %d distinct editor lists (bits, lower = better)"
         !count)
    ~header:[ "scheme"; "total bits"; "vs two-pointer" ]
    (List.map
       (fun (name, ix) ->
          [ name; Context.int_s totals.(ix);
            Printf.sprintf "%.2fx"
              (float_of_int totals.(ix) /. float_of_int (max 1 totals.(0))) ])
       [ ("two-pointer", 0); ("cdr-coded", 1); ("linked-vector", 2); ("cdar", 3);
         ("eps", 4) ])

let () =
  register "ablation.weights" "Multilisp reference management message traffic" @@ fun () ->
  let run scheme combining =
    let t = Multilisp.Refweight.create ~flush_at:8 ~nodes:8 ~scheme ~combining () in
    let rng = Util.Rng.create ~seed:2026 in
    let all = ref [] in
    for _ = 1 to 60 do
      let _obj, r = Multilisp.Refweight.create_object t ~node:(Util.Rng.int rng 8) in
      let refs = ref [ r ] in
      for _ = 1 to 15 do
        let pick = List.nth !refs (Util.Rng.int rng (List.length !refs)) in
        refs := Multilisp.Refweight.copy_ref t pick ~to_node:(Util.Rng.int rng 8) :: !refs
      done;
      all := !refs @ !all
    done;
    List.iter (fun r -> Multilisp.Refweight.drop_ref t r) !all;
    Multilisp.Refweight.flush t;
    Multilisp.Refweight.messages t
  in
  Util.Series.print_rows
    ~title:"Ablation — Ch 6 distributed reference management (60 objects x 15 copies, 8 nodes)"
    ~header:[ "scheme"; "messages" ]
    [ [ "naive counting"; Context.int_s (run Multilisp.Refweight.Naive false) ];
      [ "reference weighting"; Context.int_s (run Multilisp.Refweight.Weighted false) ];
      [ "weighting + combining"; Context.int_s (run Multilisp.Refweight.Weighted true) ] ]

let () =
  register "ablation.isa" "Compiled vs interpreted execution (Figs 4.14/4.15)" @@ fun () ->
  let programs =
    [ ("fact 12",
       "(def fact (lambda (x) (cond ((= x 0) 1) (t (* x (fact (- x 1))))))) (fact 12)");
      ("fib 15",
       "(def fib (lambda (n) (cond ((lessp n 2) n) (t (+ (fib (- n 1)) (fib (- n 2))))))) (fib 15)");
      ("list walk",
       "(prog (l n) (setq l (quote (a b c d e f g h i j k l m n o p))) (setq n 0) loop (cond ((null l) (return n))) (setq n (add1 n)) (setq l (cdr l)) (go loop))") ]
  in
  let workload_rows =
    (* whole benchmark programs compiled onto the machine (prelude
       included); plagen/lyra use lambda arguments, outside the subset *)
    List.map
      (fun name ->
         let w = Option.get (Workloads.Registry.find name) in
         let src = Lisp.Prelude.source ^ "\n" ^ w.Workloads.Registry.source in
         let prog = Machine.Compile.parse_and_compile src in
         let em =
           Machine.Emulator.create ~lpt_size:16384 ~input:w.Workloads.Registry.input prog
         in
         let result =
           match Machine.Emulator.run em with
           | Some v -> Sexp.to_string (Machine.Emulator.datum_of em v)
           | None -> "-"
         in
         let interp = Lisp.Interp.create () in
         Lisp.Prelude.load interp;
         Lisp.Interp.provide_input interp w.Workloads.Registry.input;
         ignore (Lisp.Interp.run_program interp w.Workloads.Registry.source);
         let c = Machine.Emulator.lpt_counters em in
         [ "workload " ^ name; result;
           Context.int_s (Machine.Emulator.instructions em);
           Context.int_s (Lisp.Interp.steps interp);
           Context.int_s c.Core.Lpt.refops; Context.int_s c.Core.Lpt.gets ])
      [ "pearl"; "editor"; "slang" ]
  in
  Util.Series.print_rows
    ~title:"Ablation — stack-machine emulation vs interpretation"
    ~header:[ "program"; "result"; "instructions"; "interp steps"; "LP refops"; "LP gets" ]
    (List.map
       (fun (label, src) ->
          let prog = Machine.Compile.parse_and_compile src in
          let em = Machine.Emulator.create prog in
          let result =
            match Machine.Emulator.run em with
            | Some v -> Sexp.to_string (Machine.Emulator.datum_of em v)
            | None -> "-"
          in
          let interp = Lisp.Interp.create () in
          ignore (Lisp.Interp.run_program interp src);
          let c = Machine.Emulator.lpt_counters em in
          [ label; result; Context.int_s (Machine.Emulator.instructions em);
            Context.int_s (Lisp.Interp.steps interp);
            Context.int_s c.Core.Lpt.refops; Context.int_s c.Core.Lpt.gets ])
       programs
     @ workload_rows)

let () =
  register "clark" "Clark's static pointer statistics on workload heaps" @@ fun () ->
  (* Clark [Clar77a]: car pointers point mostly at atoms and lists (3:1
     atoms:lists), cdr pointers at lists and nil (3:1), rarely at atoms;
     linearised lists keep cdr distances at 1.  Measure the same over our
     workloads' input structures loaded by the linearising allocator. *)
  let rows =
    List.map
      (fun w ->
         let store = Heap.Store.create ~capacity:200_000 in
         let tab = Heap.Symtab.create () in
         let roots =
           List.filter_map
             (fun (d : Sexp.Datum.t) ->
                match d with
                | Cons _ -> Some (Heap.Linearize.store_linear tab store d)
                | _ -> None)
             w.Workloads.Registry.input
         in
         let totals =
           List.fold_left
             (fun (ca, cl, cn, da, dl, dn, lin, cells) root ->
                let s = Heap.Linearize.pointer_stats store ~root in
                let cdr_total =
                  List.fold_left (fun acc (_, c) -> acc + c) 0 s.Heap.Linearize.distances
                in
                let at1 =
                  Option.value ~default:0 (List.assoc_opt 1 s.Heap.Linearize.distances)
                in
                ( ca + s.Heap.Linearize.car_to_atom, cl + s.Heap.Linearize.car_to_list,
                  cn + s.Heap.Linearize.car_to_nil, da + s.Heap.Linearize.cdr_to_atom,
                  dl + s.Heap.Linearize.cdr_to_list, dn + s.Heap.Linearize.cdr_to_nil,
                  lin + at1, cells + cdr_total ))
             (0, 0, 0, 0, 0, 0, 0, 0) roots
         in
         let ca, cl, cn, da, dl, dn, lin, cdrs = totals in
         let pct a b = if a + b = 0 then "-" else Printf.sprintf "%.1f:1" (float_of_int a /. float_of_int (max 1 b)) in
         [ w.Workloads.Registry.name;
           pct ca cl;             (* car atoms : lists *)
           Context.int_s cn;      (* car -> nil (Clark: rare) *)
           pct dl dn;             (* cdr lists : nil *)
           Context.int_s da;      (* cdr -> atom (Clark: rare) *)
           (if cdrs = 0 then "-" else Context.pct (100. *. float_of_int lin /. float_of_int cdrs)) ])
      (Context.chapter3_suite ())
  in
  Util.Series.print_rows
    ~title:"Clark's static study — pointer targets over linearised workload inputs"
    ~header:[ "trace"; "car atom:list"; "car->nil"; "cdr list:nil"; "cdr->atom"; "cdr dist-1 %" ]
    rows

let () =
  register "ablation.gc" "Heap maintenance: mark-sweep vs refcount vs copying" @@ fun () ->
  (* a churn benchmark: keep a rotating window of live chains while
     allocating far more than the window, under each collector *)
  let total_allocs = 30_000 and window = 64 and chain = 12 in
  (* mark-sweep over a Store *)
  let ms () =
    let store = Heap.Store.create ~capacity:4096 in
    let live = Array.make window Heap.Word.Nil in
    let collections = ref 0 in
    let build () =
      let rec go k tail =
        if k = 0 then tail
        else
          match Heap.Store.alloc store ~car:(Heap.Word.Int k) ~cdr:tail with
          | a -> go (k - 1) (Heap.Word.Ptr a)
          | exception Heap.Store.Out_of_memory ->
            incr collections;
            ignore (Heap.Marksweep.collect store ~roots:(tail :: Array.to_list live));
            go k tail
      in
      go chain Heap.Word.Nil
    in
    for i = 0 to (total_allocs / chain) - 1 do
      live.(i mod window) <- build ()
    done;
    Printf.sprintf "%d collections" !collections
  in
  (* refcounting over a Store (lazy policy) *)
  let rc () =
    let store = Heap.Store.create ~capacity:4096 in
    let rcm = Heap.Refcount.create store ~policy:Heap.Refcount.Lazy in
    let live = Array.make window (-1) in
    let build () =
      let rec go k tail =
        if k = 0 then tail
        else
          let a =
            Heap.Refcount.alloc rcm
              ~car:(Heap.Word.Int k)
              ~cdr:(match tail with -1 -> Heap.Word.Nil | t -> Heap.Word.Ptr t)
          in
          (match tail with -1 -> () | t -> Heap.Refcount.decr rcm t);
          go (k - 1) a
      in
      go chain (-1)
    in
    for i = 0 to (total_allocs / chain) - 1 do
      let head = build () in
      (match live.(i mod window) with -1 -> () | old -> Heap.Refcount.decr rcm old);
      live.(i mod window) <- head
    done;
    Printf.sprintf "%d refops, %d reclaims" (Heap.Refcount.refops rcm)
      (Heap.Refcount.reclaimed rcm)
  in
  (* incremental copying *)
  let cp () =
    let gc = Heap.Copying.create ~semispace:2048 ~increment:4 in
    let live = Array.init window (fun _ -> Heap.Copying.add_root gc Heap.Word.Nil) in
    let build () =
      let rec go k tail =
        if k = 0 then tail
        else go (k - 1) (Heap.Word.Ptr (Heap.Copying.alloc gc ~car:(Heap.Word.Int k) ~cdr:tail))
      in
      go chain Heap.Word.Nil
    in
    for i = 0 to (total_allocs / chain) - 1 do
      Heap.Copying.set_root gc live.(i mod window) (build ())
    done;
    let c = Heap.Copying.counters gc in
    Printf.sprintf "%d flips, %d copied, max pause %d" c.Heap.Copying.flips
      c.Heap.Copying.copied c.Heap.Copying.max_pause
  in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf
         "Ablation — heap maintenance under churn (%d cells allocated, %d-chain window of %d)"
         total_allocs chain window)
    ~header:[ "collector"; "activity" ]
    [ [ "mark-sweep (stop the world)"; ms () ];
      [ "reference counting (lazy)"; rc () ];
      [ "copying (incremental, k=4)"; cp () ] ]

let () =
  register "ablation.counts" "Truncated reference counts: recovery vs width (M3L)" @@ fun () ->
  (* [Sans82a]: a 3-bit count reclaims ~98% of garbage.  Sweep the count
     width under a sharing-heavy churn and measure what counting alone
     recovers before the backup collector runs. *)
  let run width =
    let store = Heap.Store.create ~capacity:8192 in
    let sc = Heap.Small_counts.create store ~width in
    let rng = Util.Rng.create ~seed:16 in
    for _ = 1 to 600 do
      let cells =
        List.init 8 (fun i -> Heap.Small_counts.alloc sc ~car:(Heap.Word.Int i) ~cdr:Heap.Word.Nil)
      in
      List.iter
        (fun a ->
           (* transient sharing bursts saturate narrow counts *)
           if Util.Rng.bool rng ~p:0.15 then begin
             let burst = 2 + Util.Rng.int rng 12 in
             for _ = 1 to burst do Heap.Small_counts.incr sc a done;
             for _ = 1 to burst do Heap.Small_counts.decr sc a done
           end)
        cells;
      List.iter (fun a -> Heap.Small_counts.decr sc a) cells
    done;
    ignore (Heap.Small_counts.backup_sweep sc ~roots:[]);
    let c = Heap.Small_counts.counters sc in
    (Heap.Small_counts.count_recovery_rate sc, c.Heap.Small_counts.saturations)
  in
  Util.Series.print_rows
    ~title:"Ablation — garbage recovered by counting alone, by count width"
    ~header:[ "count bits"; "recovered by counts"; "saturating increments" ]
    (List.map
       (fun width ->
          let rate, sats = run width in
          [ Context.int_s width; Printf.sprintf "%.1f%%" (100. *. rate);
            Context.int_s sats ])
       [ 1; 2; 3; 4; 6 ])

let () =
  register "fig3.2" "Significance of n and p: the worked examples" @@ fun () ->
  (* the two lists of Figure 3.2 under every representation scheme *)
  Util.Series.print_rows
    ~title:"Fig 3.2 — space for the two worked examples, by scheme"
    ~header:[ "list"; "n"; "p"; "2-ptr cells"; "cdr cells"; "struct cells";
              "2-ptr bits"; "cdr bits"; "cdar bits"; "eps bits" ]
    (List.map
       (fun src ->
          let d = Sexp.parse src in
          let s = Repr.Cost.summarize d in
          [ src; Context.int_s s.Repr.Cost.n; Context.int_s s.Repr.Cost.p;
            Context.int_s s.Repr.Cost.two_pointer_cells;
            Context.int_s s.Repr.Cost.cdr_coded_cells;
            Context.int_s s.Repr.Cost.structure_coded_cells;
            Context.int_s s.Repr.Cost.two_pointer_bits;
            Context.int_s s.Repr.Cost.cdr_coded_bits;
            Context.int_s s.Repr.Cost.cdar_bits;
            Context.int_s s.Repr.Cost.eps_bits ])
       [ "(a b c (d e) f g)"; "(a (b (c (d e) f) g))" ])

(* OCaml-heap bytes one call of [f] allocates: the least of five calls,
   since a call during which the collector runs can be charged a whole
   minor heap more than it allocated. *)
let least_alloc_bytes f =
  let least = ref infinity in
  for _ = 1 to 5 do
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    least := Float.min !least (Gc.allocated_bytes () -. before)
  done;
  !least

let () =
  register "traceio" "Trace store: owned-read replay vs the legacy reader" @@ fun () ->
  (* Two experiments on one large synthetic trace.  First the store
     comparison (sexp vs binary bytes, write and load time), then the
     replay pipelines over the binary file:
     - legacy: open a channel and decode the whole stream into a
       capture before any event is visible (the streaming channel
       reader, [Oracle.Channel.read_channel]);
     - owned read: [Trace.Io.open_path] reads the file into a buffer
       the source owns, by the word-wide copy, and flat batch iteration
       replays it without materialising an event; startup is the time
       to the first decoded batch;
     - kept read: [Trace.Io.with_path], the same replay with the file
       read into the domain's kept buffer (the service's path).
     SMALLSIM_BENCH_SMOKE=1 (CI) shrinks the trace, and then an owned-read
     replay slower than the legacy reader fails the bench; with
     SMALLSIM_BENCH_REPLAY_OUT=FILE the measurements land as JSON (the
     BENCH_replay.json trajectory). *)
  let smoke = Sys.getenv_opt "SMALLSIM_BENCH_SMOKE" <> None in
  let length = if smoke then 60_000 else 400_000 in
  let capture = Trace.Synth.generate { Trace.Synth.default with length } in
  let events = Trace.Capture.length capture in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best_of n f =
    let best = ref infinity in
    for _ = 1 to n do
      let _, s = time f in
      if s < !best then best := s
    done;
    !best
  in
  let mb bytes = bytes /. (1024. *. 1024.) in
  let measure format suffix =
    let path = Filename.temp_file "smallsim-trace" suffix in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
         let (), write_s = time (fun () -> Trace.Io.save ~format path capture) in
         let bytes = (Unix.stat path).Unix.st_size in
         let best = ref infinity in
         for _ = 1 to 3 do
           let loaded, load_s = time (fun () -> Trace.Io.load path) in
           if Trace.Capture.length loaded <> events then
             failwith "traceio: reloaded trace has the wrong length";
           if load_s < !best then best := load_s
         done;
         (bytes, write_s, !best))
  in
  let s_bytes, s_write, s_load = measure Trace.Io.Sexp_lines ".trace" in
  let b_bytes, b_write, b_load = measure Trace.Io.Binary ".btrace" in
  let row label (bytes, write_s, load_s) speedup =
    [ label; Context.int_s bytes; Printf.sprintf "%.4f" write_s;
      Printf.sprintf "%.4f" load_s; speedup ]
  in
  Util.Series.print_rows
    ~title:(Printf.sprintf "Trace store — sexp vs binary on a %d-event synthetic trace" events)
    ~header:[ "format"; "bytes"; "write s"; "load s"; "load speedup" ]
    [ row "sexp lines" (s_bytes, s_write, s_load) "1.00x";
      row "binary" (b_bytes, b_write, b_load)
        (Printf.sprintf "%.2fx" (s_load /. Float.max b_load 1e-9)) ];
  (* ---- replay pipelines over the binary file ---- *)
  let path = Filename.temp_file "smallsim-replay" ".smtb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Trace.Io.save ~format:Trace.Io.Binary path capture;
  let file_bytes = (Unix.stat path).Unix.st_size in
  let reps = if smoke then 3 else 5 in
  let legacy_load () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
         let c = Oracle.Channel.read_channel ic in
         if Trace.Capture.length c <> events then
           failwith "traceio: legacy reader saw the wrong event count")
  in
  let owned () =
    match Trace.Io.open_path path with
    | Trace.Io.Binary_source src -> src
    | Trace.Io.Sexp_capture _ -> failwith "traceio: binary trace expected"
  in
  let startup () =
    if Trace.Binary.next_batch (Trace.Binary.read_source (owned ())) = None && events > 0
    then failwith "traceio: owned-read reader produced no batch"
  in
  let replay src =
    let n = ref 0 in
    Trace.Binary.iter_batches src (fun b -> n := !n + Trace.Binary.Batch.length b);
    if !n <> events then failwith "traceio: batch replay saw the wrong event count"
  in
  let batch_replay () = replay (owned ()) in
  let kept_replay () =
    Trace.Io.with_path path (fun _ -> function
      | Trace.Io.Binary_source src -> replay src
      | Trace.Io.Sexp_capture _ -> failwith "traceio: binary trace expected")
  in
  let legacy_s = best_of reps legacy_load in
  let startup_s = best_of reps startup in
  let replay_s = best_of reps batch_replay in
  let kept_s = best_of reps kept_replay in
  let legacy_alloc = least_alloc_bytes legacy_load in
  let batch_alloc = least_alloc_bytes batch_replay in
  let src = owned () in
  let stats_s = best_of reps (fun () -> ignore (Trace.Binary.header_stats src)) in
  let owned_read_s = best_of reps (fun () -> ignore (owned ())) in
  let pre_reps = if smoke then 1 else 2 in
  let pre_run_s = best_of pre_reps (fun () -> ignore (Trace.Preprocess.run capture)) in
  let pre_src_s = best_of pre_reps (fun () -> ignore (Trace.Preprocess.scan src)) in
  (* a repeat of bytes the process has scanned: [run_source] on a
     second owned read, equal bytes in another buffer, is a lookup *)
  let scanned = Trace.Preprocess.run_source src in
  let again = owned () in
  if Trace.Preprocess.run_source again != scanned then
    failwith "traceio: equal bytes in another buffer missed the form memo";
  let pre_hit_s = best_of reps (fun () -> ignore (Trace.Preprocess.run_source again)) in
  let startup_speedup = legacy_s /. Float.max startup_s 1e-9 in
  let replay_speedup = legacy_s /. Float.max replay_s 1e-9 in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf "Replay — legacy whole-file reader vs flat batches (%d events, %d bytes)"
         events file_bytes)
    ~header:[ "pipeline"; "startup s"; "full replay s"; "alloc MB"; "replay speedup" ]
    [ [ "legacy read_channel"; Printf.sprintf "%.4f" legacy_s;
        Printf.sprintf "%.4f" legacy_s; Printf.sprintf "%.1f" (mb legacy_alloc);
        "1.00x" ];
      [ "owned read + flat batches"; Printf.sprintf "%.6f" startup_s;
        Printf.sprintf "%.4f" replay_s; Printf.sprintf "%.1f" (mb batch_alloc);
        Printf.sprintf "%.2fx" replay_speedup ] ];
  Printf.printf "replay startup: %.6fs owned read vs %.4fs legacy (%.0fx); \
                 kept-read replay: %.4fs; header-only stats: %.6fs\n"
    startup_s legacy_s startup_speedup kept_s stats_s;
  Printf.printf "preprocess: run %.4fs vs scan %.4fs (%.2fx); run_source hit %.6fs\n"
    pre_run_s pre_src_s (pre_run_s /. Float.max pre_src_s 1e-9) pre_hit_s;
  Printf.printf "owned read (Trace.Io.open_path): %.6fs\n" owned_read_s;
  (match Sys.getenv_opt "SMALLSIM_BENCH_REPLAY_OUT" with
   | None -> ()
   | Some file ->
     let oc = open_out file in
     Printf.fprintf oc
       "{\"bench\": \"replay\", \"smoke\": %b, \"events\": %d, \"file_bytes\": %d,\n\
       \ \"legacy_load_s\": %.6f, \"legacy_alloc_mb\": %.2f,\n\
       \ \"owned_startup_s\": %.6f, \"startup_speedup\": %.1f,\n\
       \ \"batch_replay_s\": %.6f, \"batch_alloc_mb\": %.2f, \"replay_speedup\": %.2f,\n\
       \ \"kept_replay_s\": %.6f, \"header_stats_s\": %.6f,\n\
       \ \"preprocess_run_s\": %.6f, \"preprocess_run_source_s\": %.6f,\n\
       \ \"preprocess_hit_s\": %.6f, \"owned_read_s\": %.6f}\n"
       smoke events file_bytes legacy_s (mb legacy_alloc) startup_s startup_speedup
       replay_s (mb batch_alloc) replay_speedup kept_s stats_s pre_run_s pre_src_s
       pre_hit_s owned_read_s;
     close_out oc;
     Printf.printf "wrote %s\n" file);
  if smoke && replay_s > legacy_s then
    failwith
      (Printf.sprintf
         "traceio: owned-read replay (%.4fs) slower than the legacy reader (%.4fs)"
         replay_s legacy_s)

let () =
  register "sim.hotloop" "Simulation kernel: flat packed replay vs the boxed reference" @@ fun () ->
  (* The allocation-free simulation core against the boxed interpreter it
     replaced, on one large synthetic trace.  Stats equality between the
     two kernels is asserted unconditionally — the speedup is only
     meaningful if the simulation is bit-identical.  SMALLSIM_BENCH_SMOKE=1
     (CI) shrinks the trace and gates: the flat kernel must not be slower
     than the reference, and must stay under the per-event minor-allocation
     ceiling (16 words); the cold-miss step — [Preprocess.scan] (what
     [Preprocess.run_source] runs on bytes it has not seen) then
     [Simulator.pack] — must allocate at most 10% more OCaml-heap
     bytes per event than it did once the scan wrote the form in place
     (10.8 B/event on the smoke trace, nearly all of it the form's codes
     and (n, p) table, so the ceiling is 11.9).  A repeat of the
     service's cold path in the same domain — the file read into the
     domain's kept buffer, then the scan over its kept storage — must
     allocate at most 10% more than it did then (11.7 B/event, so the
     ceiling is 12.9), and must leave the kept memory as large as it
     found it.  With SMALLSIM_BENCH_SIM_OUT=FILE
     the measurements land as JSON (the BENCH_sim.json trajectory). *)
  let smoke = Sys.getenv_opt "SMALLSIM_BENCH_SMOKE" <> None in
  let length = if smoke then 60_000 else 400_000 in
  let capture = Trace.Synth.generate { Trace.Synth.default with length } in
  let pre = Trace.Preprocess.run capture in
  let cfg = Core.Simulator.default_config in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best_of n f =
    let best = ref infinity in
    for _ = 1 to n do
      let _, s = time f in
      if s < !best then best := s
    done;
    !best
  in
  let reps = if smoke then 3 else 5 in
  let packed, pack_s = time (fun () -> Core.Simulator.pack pre) in
  let events = Core.Simulator.packed_events packed in
  let prims = (Trace.Capture.stats capture).Trace.Capture.primitives in
  (* correctness gate first: byte-identical stats, always enforced *)
  let s_ref = Oracle.Reference.run_reference cfg pre in
  let s_flat = Core.Simulator.run_packed cfg packed in
  if compare s_ref s_flat <> 0 then
    failwith "sim.hotloop: flat kernel diverges from the reference stats";
  let ref_s = best_of reps (fun () -> ignore (Oracle.Reference.run_reference cfg pre)) in
  let flat_s = best_of reps (fun () -> ignore (Core.Simulator.run_packed cfg packed)) in
  (* end-to-end off a binary file: scan + pack + replay; and scan +
     pack alone, the cold-miss preprocessing step, off a source that
     owns the file's bytes *)
  let path = Filename.temp_file "smallsim-simbench" ".smtb" in
  let src_s, scan_pack_s, pack_alloc, hit_s, (repeat_s, repeat_alloc, kept, kept_after) =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
         Trace.Io.save ~format:Trace.Io.Binary path capture;
         let owned () =
           match Trace.Io.open_path path with
           | Trace.Io.Binary_source src -> src
           | Trace.Io.Sexp_capture _ -> failwith "sim.hotloop: binary trace expected"
         in
         let src = owned () in
         let scan_pack src = Core.Simulator.pack (Trace.Preprocess.scan src) in
         let run_src () =
           let s = Core.Simulator.run_packed cfg (scan_pack src) in
           if compare s s_ref <> 0 then
             failwith "sim.hotloop: the scanned trace diverges from the reference stats"
         in
         if compare (scan_pack src) packed <> 0 then
           failwith "sim.hotloop: pack . scan diverges from pack . run";
         let alloc_of f = least_alloc_bytes f /. float_of_int (max 1 events) in
         (* a repeat cold miss on bytes the process has scanned: equal
            bytes in another buffer are a form memo lookup *)
         let scanned = Trace.Preprocess.run_source src in
         let again = owned () in
         if Trace.Preprocess.run_source again != scanned then
           failwith "sim.hotloop: equal bytes in another buffer missed the form memo";
         let hit_s = best_of reps (fun () -> ignore (Trace.Preprocess.run_source again)) in
         let alloc = alloc_of (fun () -> scan_pack src) in
         (* [Gc.allocated_bytes] sees the OCaml heap only: the kept
            memory is [Bigarray] storage, reported on its own *)
         let scoped_pack () =
           Trace.Io.with_path path (fun _ loaded ->
               match loaded with
               | Trace.Io.Binary_source src -> scan_pack src
               | Trace.Io.Sexp_capture _ -> failwith "sim.hotloop: binary trace expected")
         in
         ignore (scoped_pack ());
         let kept = Trace.Scratch.retained_bytes () in
         let repeat_alloc = alloc_of scoped_pack in
         if compare (scoped_pack ()) packed <> 0 then
           failwith "sim.hotloop: repeat scan diverges from pack . run";
         let kept_after = Trace.Scratch.retained_bytes () in
         (best_of reps run_src, best_of reps (fun () -> ignore (scan_pack src)), alloc, hit_s,
          (best_of reps (fun () -> ignore (scoped_pack ())), repeat_alloc, kept, kept_after)))
  in
  (* per-primitive-event minor allocation of the flat kernel (the
     reference allocates stack items, options and draws per event) *)
  let alloc_per_event f =
    let before = Gc.allocated_bytes () in
    ignore (f ());
    (Gc.allocated_bytes () -. before) /. float_of_int (max 1 prims)
  in
  let ref_alloc = alloc_per_event (fun () -> Oracle.Reference.run_reference cfg pre) in
  let flat_alloc = alloc_per_event (fun () -> Core.Simulator.run_packed cfg packed) in
  let speedup = ref_s /. Float.max flat_s 1e-9 in
  let eps f = float_of_int prims /. Float.max f 1e-9 in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf
         "Simulation kernel — boxed reference vs flat packed (%d events, %d prims)"
         events prims)
    ~header:[ "kernel"; "run s"; "prims/s"; "alloc B/prim"; "speedup" ]
    [ [ "boxed reference"; Printf.sprintf "%.4f" ref_s;
        Printf.sprintf "%.0f" (eps ref_s); Printf.sprintf "%.1f" ref_alloc;
        "1.00x" ];
      [ "flat packed"; Printf.sprintf "%.4f" flat_s;
        Printf.sprintf "%.0f" (eps flat_s); Printf.sprintf "%.1f" flat_alloc;
        Printf.sprintf "%.2fx" speedup ] ];
  Printf.printf "pack: %.6fs once per trace; scan end-to-end: %.4fs\n"
    pack_s src_s;
  Printf.printf "scan + pack: %.4fs, %.1f B/event allocated\n" scan_pack_s pack_alloc;
  Printf.printf
    "scan + pack repeat (kept memory): %.4fs, %.1f B/event allocated, %d B kept\n"
    repeat_s repeat_alloc kept_after;
  Printf.printf "run_source hit (equal bytes, another buffer): %.6fs\n" hit_s;
  (match Sys.getenv_opt "SMALLSIM_BENCH_SIM_OUT" with
   | None -> ()
   | Some file ->
     let oc = open_out file in
     Printf.fprintf oc
       "{\"bench\": \"sim\", \"smoke\": %b, \"events\": %d, \"prims\": %d,\n\
       \ \"reference_run_s\": %.6f, \"reference_alloc_b_per_prim\": %.1f,\n\
       \ \"flat_run_s\": %.6f, \"flat_alloc_b_per_prim\": %.2f,\n\
       \ \"speedup\": %.2f, \"pack_s\": %.6f, \"run_source_s\": %.6f,\n\
       \ \"flat_prims_per_s\": %.0f, \"scan_pack_s\": %.6f,\n\
       \ \"scan_pack_alloc_b_per_event\": %.2f, \"scan_pack_repeat_s\": %.6f,\n\
       \ \"scan_pack_repeat_alloc_b_per_event\": %.2f, \"scratch_bytes\": %d,\n\
       \ \"run_source_hit_s\": %.6f}\n"
       smoke events prims ref_s ref_alloc flat_s flat_alloc speedup pack_s src_s
       (eps flat_s) scan_pack_s pack_alloc repeat_s repeat_alloc kept_after hit_s;
     close_out oc;
     Printf.printf "wrote %s\n" file);
  (* 16 words = 128 bytes on 64-bit: the issue's steady-state ceiling *)
  if smoke && flat_alloc > 128.0 then
    failwith
      (Printf.sprintf
         "sim.hotloop: flat kernel allocates %.1f B/prim (ceiling 128)"
         flat_alloc);
  if smoke && pack_alloc > 11.9 then
    failwith
      (Printf.sprintf
         "sim.hotloop: scan + pack allocates %.1f B/event (ceiling 11.9)"
         pack_alloc);
  if smoke && repeat_alloc > 12.9 then
    failwith
      (Printf.sprintf
         "sim.hotloop: repeat scan + pack allocates %.1f B/event (ceiling 12.9)"
         repeat_alloc);
  if smoke && kept_after > kept then
    failwith
      (Printf.sprintf "sim.hotloop: kept memory grew on a repeat (%d -> %d bytes)"
         kept kept_after);
  if smoke && flat_s > ref_s then
    failwith
      (Printf.sprintf
         "sim.hotloop: flat kernel (%.4fs) slower than the reference (%.4fs)"
         flat_s ref_s)

let () =
  register "obs.overhead" "Metrics instrumentation: simulation throughput cost" @@ fun () ->
  (* the observability layer promises to be near-free when no registry is
     attached and within a few percent when one is: time the same slang
     simulation bare and instrumented, best-of-N to shed scheduler noise.
     SMALLSIM_BENCH_SMOKE=1 (CI) cuts the repetitions down. *)
  let pre = Context.pre "slang" in
  let events = Trace.Preprocess.ref_count pre in
  let config = { Core.Simulator.default_config with table_size = 2048 } in
  let reps = if Sys.getenv_opt "SMALLSIM_BENCH_SMOKE" <> None then 3 else 7 in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f () : Core.Simulator.stats);
    Unix.gettimeofday () -. t0
  in
  (* warm the trace/minor-heap state before timing anything *)
  ignore (Core.Simulator.run config pre : Core.Simulator.stats);
  let reg = Obs.Registry.create () in
  (* interleave the repetitions so both variants see the same machine
     load; best-of sheds the scheduler noise *)
  let bare = ref infinity and instrumented = ref infinity in
  for _ = 1 to reps do
    bare := Float.min !bare (time (fun () -> Core.Simulator.run config pre));
    instrumented :=
      Float.min !instrumented
        (time (fun () -> Core.Simulator.run ~metrics:reg config pre))
  done;
  let bare = !bare and instrumented = !instrumented in
  let throughput s = float_of_int events /. Float.max s 1e-9 /. 1e6 in
  let overhead = 100. *. (instrumented /. Float.max bare 1e-9 -. 1.) in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf
         "Observability — slang simulation (%d events, table 2048, best of %d)"
         events reps)
    ~header:[ "variant"; "seconds"; "Mevents/s"; "overhead" ]
    [ [ "bare"; Printf.sprintf "%.4f" bare;
        Printf.sprintf "%.2f" (throughput bare); "-" ];
      [ "instrumented"; Printf.sprintf "%.4f" instrumented;
        Printf.sprintf "%.2f" (throughput instrumented);
        Printf.sprintf "%+.2f%%" overhead ] ]

let () =
  register "cluster.loadgen" "Sharded smalld: zipfian load vs placement policy" @@ fun () ->
  (* the routed service under a YCSB-style zipfian load: the same
     workload against a 2-shard in-process cluster under cache-aware and
     uniform placement.  The hot keys of a skewed popularity curve keep
     landing on the shard that already caches them, so the cache-aware
     run should show materially more shard-cache hits at comparable
     tails.  SMALLSIM_BENCH_SMOKE=1 (CI) shrinks the request count; with
     SMALLSIM_BENCH_CLUSTER_OUT=FILE the measurements land as JSON (the
     BENCH_cluster.json trajectory). *)
  let smoke = Sys.getenv_opt "SMALLSIM_BENCH_SMOKE" <> None in
  let requests = if smoke then 96 else 384 in
  let universe = if smoke then 24 else 48 in
  let shard ?fault ?(workers = 2) sid =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let svc =
      Server.Service.create ?fault ~shard_id:sid ~workers ~queue_capacity:64 ()
    in
    let d =
      Domain.spawn (fun () ->
          let ic = Unix.in_channel_of_descr b in
          let oc = Unix.out_channel_of_descr (Unix.dup b) in
          ignore (Server.Service.serve_channels svc ic oc);
          Server.Service.shutdown svc;
          (try close_out oc with Sys_error _ -> ());
          (try close_in ic with Sys_error _ -> ()))
    in
    let ic = Unix.in_channel_of_descr a in
    let oc = Unix.out_channel_of_descr (Unix.dup a) in
    ((sid, Cluster.Router.Channels (ic, oc)), d)
  in
  let drive placement =
    let shards, domains = List.split [ shard "s0"; shard "s1" ] in
    let t = Cluster.Router.create ~placement ~steal_min:0 ~shards () in
    Fun.protect
      ~finally:(fun () ->
          Cluster.Router.shutdown t;
          List.iter Domain.join domains)
      (fun () ->
         Cluster.Loadgen.run
           ~submit:(Cluster.Router.submit_line t)
           { Cluster.Loadgen.default with
             requests; universe; clients = 4; theta = 0.99; seed = 3;
             workload = "slang"; size = 256 })
  in
  let aware = drive Cluster.Router.Cache_aware in
  let uniform = drive Cluster.Router.Uniform in
  (* slow-shard hedging drill: the same uniform routing, but 30% of
     s1's uncached jobs sleep ~400 ms (a deterministic service-side
     fault plan) — the stuck-straggler regime hedging is built for.  The
     hedged router re-issues any job outliving twice its shard's
     observed latency quantile to the other shard and keeps whichever
     reply lands first, so the laggards' tail collapses to roughly the
     trigger age plus one fast compute.  (A *uniformly* slow shard is
     deliberately not drilled here: it inflates its own quantile until
     the trigger never beats natural completion — that regime belongs to
     the breaker, not the hedge.)  Jobs are (nearly) all distinct — a
     result-cache hit skips the worker thunk and with it the injected
     delay, which would mask the very tail the drill is about. *)
  let drill_requests = if smoke then 96 else 192 in
  let slow_plan =
    Fault.Plan.create
      { Fault.Plan.default with Fault.Plan.seed = 11; delay = 0.3; delay_s = 0.4 }
  in
  let drive_drill ~hedge =
    (* 4 workers per shard: with 4 closed-loop clients nothing queues on
       the slow shard, so its latency is the injected delay itself rather
       than a mix of delay and queueing — the quantile the hedge trigger
       doubles stays meaningful *)
    let shards, domains =
      List.split [ shard ~workers:4 "s0"; shard ~fault:slow_plan ~workers:4 "s1" ]
    in
    let hedge_quantile = if hedge then 0.25 else 0.0 in
    let t =
      Cluster.Router.create ~placement:Cluster.Router.Uniform ~steal_min:0
        ~hedge_quantile ~hedge_floor:0.01 ~shards ()
    in
    Fun.protect
      ~finally:(fun () ->
          Cluster.Router.shutdown t;
          List.iter Domain.join domains)
      (fun () ->
         let cfg =
           { Cluster.Loadgen.default with
             requests = drill_requests; universe = 4 * drill_requests;
             clients = 4; theta = 0.0; seed = 5; workload = "slang";
             size = 256 }
         in
         (* unmeasured warm phase at a different job size: the hedge
            trigger sits out until a shard has 16 latency samples, and
            those must reflect real compute — warm jobs are distinct (a
            cached sub-ms reply would drag the quantile, and with it the
            trigger, toward zero) and must not collide with measured
            ones (the result caches would then serve the measured run
            without ever touching a delayed worker) *)
         ignore
           (Cluster.Loadgen.run ~submit:(Cluster.Router.submit_line t)
              { cfg with requests = 48; universe = 192; size = 128; seed = 4 }
             : Cluster.Loadgen.report);
         let r = Cluster.Loadgen.run ~submit:(Cluster.Router.submit_line t) cfg in
         let hedges =
           match
             Option.bind
               (Server.Json.member "resilience" (Cluster.Router.stats_json t))
               (Server.Json.member "hedged")
           with
           | Some (Server.Json.Int n) -> n
           | _ -> 0
         in
         (r, hedges))
  in
  let unhedged, _ = drive_drill ~hedge:false in
  let hedged, hedges = drive_drill ~hedge:true in
  let row label (r : Cluster.Loadgen.report) =
    [ label; Context.int_s r.Cluster.Loadgen.ok;
      Context.int_s r.Cluster.Loadgen.cached;
      Printf.sprintf "%.1f" r.Cluster.Loadgen.throughput;
      Printf.sprintf "%.2f" r.Cluster.Loadgen.p50_ms;
      Printf.sprintf "%.2f" r.Cluster.Loadgen.p99_ms;
      Printf.sprintf "%.2f" r.Cluster.Loadgen.p999_ms ]
  in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf
         "Cluster — %d zipfian requests (theta 0.99, universe %d) on 2 shards, by placement"
         requests universe)
    ~header:[ "placement"; "ok"; "shard-cache hits"; "req/s"; "p50 ms"; "p99 ms"; "p999 ms" ]
    [ row "cache-aware" aware; row "uniform" uniform ];
  let drill_row label hedges (r : Cluster.Loadgen.report) =
    [ label; Context.int_s r.Cluster.Loadgen.ok; Context.int_s hedges;
      Printf.sprintf "%.1f" r.Cluster.Loadgen.throughput;
      Printf.sprintf "%.2f" r.Cluster.Loadgen.p50_ms;
      Printf.sprintf "%.2f" r.Cluster.Loadgen.p99_ms;
      Printf.sprintf "%.2f" r.Cluster.Loadgen.p999_ms ]
  in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf
         "Cluster — slow-shard drill: %d distinct requests, 30%% of s1 jobs +~400 ms, hedged vs not"
         drill_requests)
    ~header:[ "router"; "ok"; "hedges"; "req/s"; "p50 ms"; "p99 ms"; "p999 ms" ]
    [ drill_row "unhedged" 0 unhedged; drill_row "hedged" hedges hedged ];
  (match Sys.getenv_opt "SMALLSIM_BENCH_CLUSTER_OUT" with
   | None -> ()
   | Some file ->
     let oc = open_out file in
     let emit label (r : Cluster.Loadgen.report) =
       Printf.sprintf
         "\"%s\": {\"ok\": %d, \"cached\": %d, \"throughput_rps\": %.1f,\n\
         \  \"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f}"
         label r.Cluster.Loadgen.ok r.Cluster.Loadgen.cached
         r.Cluster.Loadgen.throughput r.Cluster.Loadgen.mean_ms
         r.Cluster.Loadgen.p50_ms r.Cluster.Loadgen.p99_ms r.Cluster.Loadgen.p999_ms
     in
     Printf.fprintf oc
       "{\"bench\": \"cluster\", \"smoke\": %b, \"shards\": 2, \"requests\": %d,\n\
       \ \"universe\": %d, \"theta\": 0.99, \"clients\": 4,\n\
       \ %s,\n %s,\n\
       \ \"slow_shard_drill\": {\"hedges\": %d,\n\
       \  %s,\n  %s}}\n"
       smoke requests universe (emit "cache_aware" aware) (emit "uniform" uniform)
       hedges (emit "unhedged" unhedged) (emit "hedged" hedged);
     close_out oc;
     Printf.printf "wrote %s\n" file);
  if smoke && aware.Cluster.Loadgen.cached <= uniform.Cluster.Loadgen.cached then
    failwith
      (Printf.sprintf
         "cluster: cache-aware placement hit the shard caches no more than uniform \
          routing (%d vs %d)"
         aware.Cluster.Loadgen.cached uniform.Cluster.Loadgen.cached);
  if smoke && hedges = 0 then
    failwith "cluster: slow-shard drill triggered no hedges";
  if smoke && hedged.Cluster.Loadgen.p99_ms >= unhedged.Cluster.Loadgen.p99_ms then
    failwith
      (Printf.sprintf
         "cluster: hedged p99 did not beat the unhedged baseline under a slow \
          shard (%.2f ms vs %.2f ms)"
         hedged.Cluster.Loadgen.p99_ms unhedged.Cluster.Loadgen.p99_ms)

let () =
  register "store" "Result store: log-structured stores, warm gets, recovery" @@ fun () ->
  (* the Result_cache log backend: N stores on a cold cache, then N
     warm gets from a cold process (every get comes off the disk), plus
     the open/recovery cost over the populated directory — including a
     reopen over a torn tail.  SMALLSIM_BENCH_SMOKE=1 (CI) shrinks N;
     SMALLSIM_BENCH_STORE_OUT=FILE emits the measurements as JSON (the
     BENCH_store.json trajectory). *)
  let smoke = Sys.getenv_opt "SMALLSIM_BENCH_SMOKE" <> None in
  let n = if smoke then 400 else 4000 in
  let temp_dir prefix =
    let d = Filename.temp_file prefix "" in
    Sys.remove d;
    Sys.mkdir d 0o755;
    d
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let key i =
    Server.Result_cache.key ~trace_digest:(string_of_int i) ~job_digest:"bench"
  in
  let value i =
    Printf.sprintf "(result %d %s)" i (String.make (96 + (i mod 7) * 8) 'r')
  in
  let make dir = Server.Result_cache.create ~store_dir:dir () in
  let bench () =
    let dir = temp_dir "bench_store" in
    let writer = make dir in
    let _, store_s =
      time (fun () ->
          for i = 0 to n - 1 do
            Server.Result_cache.store writer (key i) (value i)
          done)
    in
    (* a cold process over the populated directory: open (log: recovery
       replay), then every get is a disk read *)
    let reader, open_s = time (fun () -> make dir) in
    let misses = ref 0 in
    let _, get_s =
      time (fun () ->
          for i = 0 to n - 1 do
            match Server.Result_cache.find reader (key i) with
            | Some v when v = value i -> ()
            | _ -> incr misses
          done)
    in
    if !misses > 0 then
      failwith (Printf.sprintf "store bench: %d lost or corrupt entries" !misses);
    (dir, store_s, open_s, get_s)
  in
  let sdir, s_store, s_open, s_get = bench () in
  (* recovery over a torn tail: garbage appended to the live segment
     must be truncated away without losing one acknowledged entry *)
  let seg =
    Sys.readdir sdir |> Array.to_list
    |> List.filter (fun e -> Filename.check_suffix e ".smsg")
    |> List.sort compare |> List.rev |> List.hd |> Filename.concat sdir
  in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
  output_string oc (String.make 64 '\xff');
  close_out oc;
  let torn, torn_open_s = time (fun () -> make sdir) in
  let recovered = ref 0 in
  for i = 0 to n - 1 do
    if Server.Result_cache.find torn (key i) = Some (value i) then incr recovered
  done;
  let truncated =
    match Server.Result_cache.log_stats torn with
    | Some ls -> ls.Store.Log.truncated_records
    | None -> 0
  in
  let per_s count s = float_of_int count /. Float.max s 1e-9 in
  Util.Series.print_rows
    ~title:
      (Printf.sprintf "Result store — %d entries (~128B), cold-process warm gets" n)
    ~header:[ "backend"; "stores/s"; "open ms"; "warm gets/s" ]
    [ [ "log-structured"; Printf.sprintf "%.0f" (per_s n s_store);
        Printf.sprintf "%.2f" (s_open *. 1e3);
        Printf.sprintf "%.0f" (per_s n s_get) ] ];
  Util.Series.print_rows
    ~title:"Log store — recovery over a torn tail"
    ~header:[ "recovered"; "truncated records"; "reopen ms" ]
    [ [ Printf.sprintf "%d/%d" !recovered n; string_of_int truncated;
        Printf.sprintf "%.2f" (torn_open_s *. 1e3) ] ];
  (match Sys.getenv_opt "SMALLSIM_BENCH_STORE_OUT" with
   | None -> ()
   | Some file ->
     let oc = open_out file in
     Printf.fprintf oc
       "{\"bench\": \"store\", \"smoke\": %b, \"entries\": %d,\n\
       \ \"log\": {\"stores_per_s\": %.0f, \"open_ms\": %.3f, \"warm_gets_per_s\": %.0f},\n\
       \ \"torn_recovery\": {\"recovered\": %d, \"truncated_records\": %d, \"reopen_ms\": %.3f}}\n"
       smoke n (per_s n s_store) (s_open *. 1e3) (per_s n s_get)
       !recovered truncated (torn_open_s *. 1e3);
     close_out oc;
     Printf.printf "wrote %s\n" file);
  rm_rf sdir;
  if !recovered <> n then
    failwith
      (Printf.sprintf "store: torn-tail recovery lost %d acknowledged entries"
         (n - !recovered));
  if truncated < 1 then
    failwith "store: the appended garbage tail was not truncated"

let () =
  register "ablation.cluster" "Multi-node SMALL: placement vs interconnect traffic" @@ fun () ->
  (* walk a list from its owner node vs from across the machine (Fig 6.1's
     cost structure), and measure weighted-reference message costs of
     scattering and dropping references *)
  let walk_cost ~remote =
    let t = Multilisp.Cluster.create ~nodes:2 ~combining:false () in
    let h = Multilisp.Cluster.read_in t ~node:0 (Sexp.Datum.of_ints (List.init 64 Fun.id)) in
    let start = if remote then Multilisp.Cluster.send t h ~to_node:1 else h in
    let rec walk part =
      match part with
      | Multilisp.Cluster.Ref r ->
        ignore (Multilisp.Cluster.car t r);
        walk (Multilisp.Cluster.cdr t r)
      | Multilisp.Cluster.Imm _ -> ()
    in
    walk (Multilisp.Cluster.Ref start);
    Multilisp.Cluster.counters t
  in
  let local = walk_cost ~remote:false in
  let remote = walk_cost ~remote:true in
  Util.Series.print_rows
    ~title:"Ablation — walking a 64-element list on a 2-node SMALL"
    ~header:[ "placement"; "accesses"; "messages" ]
    [ [ "owner node";
        Context.int_s local.Multilisp.Cluster.local_accesses;
        Context.int_s local.Multilisp.Cluster.messages ];
      [ "remote node";
        Context.int_s remote.Multilisp.Cluster.remote_accesses;
        Context.int_s remote.Multilisp.Cluster.messages ] ]
