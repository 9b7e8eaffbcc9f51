(* Quickstart: the public API in five minutes.

   1. evaluate Lisp with the interpreter;
   2. trace its list-primitive activity;
   3. analyse the trace (Chapter 3);
   4. drive the SMALL simulator with it (Chapter 5);
   5. compile a function to the SMALL stack machine and run it (§4.3.4).

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Evaluate some Lisp. *)
  let interp = Lisp.Interp.create () in
  Lisp.Prelude.load interp;
  let v =
    Lisp.Interp.run_program interp
      "(def fact (lambda (n) (cond ((zerop n) 1) (t (* n (fact (sub1 n)))))))
       (fact 12)"
  in
  Printf.printf "interpreted (fact 12)      = %s\n" (Lisp.Value.to_string v);

  (* 2. Trace a list-manipulating program. *)
  let capture =
    Lisp.Tracer.trace_program
      "(def flat (lambda (e)
         (cond ((null e) nil)
               ((atom e) (cons e nil))
               (t (append (flat (car e)) (flat (cdr e)))))))
       (flat (quote (a (b (c d)) (e))))"
  in
  let stats = Trace.Capture.stats capture in
  Printf.printf "traced primitives          = %d (max call depth %d)\n"
    stats.Trace.Capture.primitives stats.Trace.Capture.max_depth;

  (* 3. Chapter 3 analyses. *)
  let pre = Trace.Preprocess.run capture in
  let mix = Analysis.Prim_mix.analyze pre in
  Printf.printf "primitive mix              = car %.0f%% / cdr %.0f%% / cons %.0f%%\n"
    (Analysis.Prim_mix.pct mix Trace.Event.Car)
    (Analysis.Prim_mix.pct mix Trace.Event.Cdr)
    (Analysis.Prim_mix.pct mix Trace.Event.Cons);
  let sets = Analysis.List_sets.partition pre in
  Printf.printf "list sets                  = %d over %d references\n"
    (List.length sets.Analysis.List_sets.sets)
    sets.Analysis.List_sets.stream_length;

  (* 4. Simulate the SMALL architecture on the trace. *)
  let sim =
    Core.Simulator.run
      { Core.Simulator.default_config with table_size = 256 } pre
  in
  Printf.printf "SMALL LPT hit rate         = %.1f%% (peak occupancy %d entries)\n"
    (100. *. Core.Simulator.lpt_hit_rate sim) sim.Core.Simulator.peak_lpt;

  (* 5. Compile to the SMALL instruction set and emulate. *)
  let prog =
    Machine.Compile.parse_and_compile
      "(def fact (lambda (x) (cond ((= x 0) 1) (t (* x (fact (- x 1))))))) (fact 12)"
  in
  let em = Machine.Emulator.create prog in
  (match Machine.Emulator.run em with
   | Some v ->
     Printf.printf "compiled (fact 12)         = %s in %d instructions\n"
       (Sexp.to_string (Machine.Emulator.datum_of em v))
       (Machine.Emulator.instructions em)
   | None -> print_endline "compiled run produced no value");
  let c = Machine.Emulator.lpt_counters em in
  Printf.printf "EP-LP traffic of the run   = %d refcount ops, %d entry allocations\n"
    c.Core.Lpt.refops c.Core.Lpt.gets
