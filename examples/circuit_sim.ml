(* Circuit simulation end to end — the SLANG scenario of the thesis.

   Runs the BCD-to-decimal decoder workload in the mini-Lisp, shows the
   decoded outputs, then pushes the captured trace through the Chapter 3
   locality analyses and a Chapter 5 SMALL-vs-cache simulation.

   Run with: dune exec examples/circuit_sim.exe *)

let () =
  let w = Option.get (Workloads.Registry.find "slang") in
  Printf.printf "workload: %s — %s\n\n" w.Workloads.Registry.name
    w.Workloads.Registry.description;

  (* Run it directly to see the simulated circuit at work. *)
  let interp = Lisp.Interp.create () in
  Lisp.Prelude.load interp;
  Lisp.Interp.provide_input interp w.Workloads.Registry.input;
  let result = Lisp.Interp.run_program interp w.Workloads.Registry.source in
  Printf.printf "vectors simulated: %s\n" (Lisp.Value.to_string result);

  (* Decode one digit explicitly. *)
  (match w.Workloads.Registry.input with
   | _ :: netlist :: outs :: _ ->
     Lisp.Interp.provide_input interp
       [ netlist; outs; Sexp.Datum.of_ints [ 0; 1; 1; 1 ] ];
     let one =
       Lisp.Interp.run_program interp "(sim-vector 38 (read) (read) (read))"
     in
     Printf.printf "decoder output for BCD 0111: %s\n\n" (Lisp.Value.to_string one)
   | _ -> ());

  (* Characterise the trace (Fig 3.1 / Table 3.1 view). *)
  let pre = Workloads.Registry.preprocessed w in
  let mix = Analysis.Prim_mix.analyze pre in
  let np = Analysis.Np_stats.analyze pre in
  Printf.printf "trace: %d primitives; cons share %.1f%% (SLANG is the cons outlier)\n"
    mix.Analysis.Prim_mix.total
    (Analysis.Prim_mix.pct mix Trace.Event.Cons);
  Printf.printf "lists touched: mean n = %.1f, mean p = %.1f\n\n"
    (Analysis.Np_stats.mean_n np) (Analysis.Np_stats.mean_p np);

  (* Structural locality: the list-set partition. *)
  let sets = Analysis.List_sets.partition pre in
  Printf.printf "list sets: %d; the %d largest cover 80%% of all references\n"
    (List.length sets.Analysis.List_sets.sets)
    (Analysis.List_sets.sets_for_coverage sets 0.8);
  let stream = Analysis.List_sets.set_id_stream pre in
  let lru = Analysis.Lru_stack.analyze stream in
  Printf.printf "LRU stack depth 4 captures %.0f%% of list-set accesses\n\n"
    (100. *. Analysis.Lru_stack.hit_fraction lru 4);

  (* SMALL vs a data cache of the same size (Table 5.4's comparison). *)
  List.iter
    (fun size ->
       let sim =
         Core.Simulator.run
           { Core.Simulator.default_config with
             table_size = size;
             cache = Some { Core.Simulator.cache_lines = size; cache_line_size = 1 } }
           pre
       in
       Printf.printf
         "size %4d: LPT hit rate %.2f%% (%d misses) vs cache %.2f%% (%d misses)\n"
         size
         (100. *. Core.Simulator.lpt_hit_rate sim)
         sim.Core.Simulator.lpt.Core.Lpt.misses
         (100. *. Core.Simulator.cache_hit_rate sim)
         sim.Core.Simulator.cache_misses)
    [ 64; 128; 256; 512 ]
