(* Integration tests: run the benchmark workloads end to end through the
   instrumented interpreter, check their computed outputs, and push their
   traces through the full analysis and simulation pipeline. *)

module D = Sexp.Datum

let d = Alcotest.testable Sexp.pp D.equal

let run_workload (w : Workloads.Registry.workload) =
  let i = Lisp.Interp.create () in
  Lisp.Prelude.load i;
  Lisp.Interp.provide_input i w.Workloads.Registry.input;
  let result = Lisp.Interp.run_program i w.Workloads.Registry.source in
  (Lisp.Value.to_datum result, Lisp.Interp.output i)

(* ---- workload correctness ---- *)

let test_plagen_output () =
  let w = Option.get (Workloads.Registry.find "plagen") in
  let result, output = run_workload w in
  (* the PLA has a positive number of deduplicated product terms, and the
     planes have consistent sizes *)
  (match result, output with
   | D.Int terms, D.Int terms' :: D.Int score :: D.Int aplane :: D.Int oplane :: _ ->
     Alcotest.(check bool) "terms positive" true (terms > 0);
     Alcotest.(check int) "write agrees with result" terms terms';
     Alcotest.(check int) "one AND row per term" terms aplane;
     Alcotest.(check int) "one OR column per output" 4 oplane;
     Alcotest.(check bool) "folding found shared literals" true (score > 0)
   | _ -> Alcotest.fail "unexpected plagen output shape")

let test_slang_decodes_bcd () =
  let w = Option.get (Workloads.Registry.find "slang") in
  let result, _ = run_workload w in
  (* ten vectors simulated *)
  Alcotest.check d "ten vectors" (D.Int 10) result

let test_slang_one_hot () =
  (* drive the decoder directly on digit 6 and check the one-hot output *)
  let i = Lisp.Interp.create () in
  Lisp.Prelude.load i;
  let module W = Workloads.Registry in
  let w = Option.get (W.find "slang") in
  match w.W.input with
  | nwires :: netlist :: outs :: _ ->
    (* run the program on a single vector to define its functions... *)
    Lisp.Interp.provide_input i
      [ nwires; netlist; outs; D.of_ints [ 0; 1; 1; 0 ]; D.Nil ];
    ignore (Lisp.Interp.run_program i w.W.source);
    (* ...then call sim-vector directly with fresh inputs *)
    Lisp.Interp.provide_input i [ netlist; outs; D.of_ints [ 0; 1; 1; 0 ] ];
    let r =
      Lisp.Interp.run_program i "(sim-vector 38 (read) (read) (read))"
    in
    Alcotest.check d "digit 6 is one-hot"
      (D.of_ints [ 0; 0; 0; 0; 0; 0; 1; 0; 0; 0 ])
      (Lisp.Value.to_datum r)
  | _ -> Alcotest.fail "unexpected slang input shape"

let test_lyra_finds_violations () =
  let w = Option.get (Workloads.Registry.find "lyra") in
  let result, output = run_workload w in
  (match result, output with
   | D.Int errs, D.Int errs' :: tally :: _ ->
     Alcotest.(check bool) "the random layout violates rules" true (errs > 0);
     Alcotest.(check int) "written count matches" errs errs';
     (* the tally's counts sum to the violation count *)
     let rec sum (t : D.t) acc =
       match t with
       | D.Nil -> acc
       | D.Cons (D.Cons (_, D.Cons (D.Int n, D.Nil)), rest) -> sum rest (acc + n)
       | _ -> Alcotest.fail "bad tally shape"
     in
     Alcotest.(check int) "tally sums to total" errs (sum tally 0)
   | _ -> Alcotest.fail "unexpected lyra output shape")

let test_editor_session () =
  let w = Option.get (Workloads.Registry.find "editor") in
  let result, output = run_workload w in
  (* the script substitutes acc->accum->result: counts must be found *)
  Alcotest.(check bool) "final count positive" true
    (match result with D.Int n -> n > 0 | _ -> false);
  Alcotest.(check bool) "commands produced output" true (List.length output > 10);
  (* the (find marker) command must have succeeded: t in the output *)
  Alcotest.(check bool) "find hit" true (List.exists (D.equal (D.sym "t")) output)

let test_pearl_updates () =
  let w = Option.get (Workloads.Registry.find "pearl") in
  let result, output = run_workload w in
  (match result with
   | D.Int n -> Alcotest.(check int) "db intact (4 records)" 4 n
   | _ -> Alcotest.fail "unexpected pearl result");
  (* gets return field values: some must be salary numbers bumped upward *)
  Alcotest.(check bool) "lookups answered" true
    (List.exists (function D.Int _ -> true | _ -> false) output)

(* ---- trace pipeline integration ---- *)

let test_traces_characterised () =
  (* the Fig 3.1 shape: access primitives dominate everywhere; slang is
     the cons outlier; pearl the rplac outlier *)
  let mix name =
    let w = Option.get (Workloads.Registry.find name) in
    Analysis.Prim_mix.analyze (Workloads.Registry.preprocessed w)
  in
  let share m p = Analysis.Prim_mix.pct m p in
  let access m = share m Trace.Event.Car +. share m Trace.Event.Cdr in
  let plagen = mix "plagen" and slang = mix "slang" and pearl = mix "pearl" in
  let lyra = mix "lyra" and editor = mix "editor" in
  List.iter
    (fun (name, m) ->
       Alcotest.(check bool) (name ^ ": car+cdr majority") true (access m > 50.))
    [ ("plagen", plagen); ("lyra", lyra); ("editor", editor); ("pearl", pearl) ];
  Alcotest.(check bool) "slang is the cons outlier" true
    (share slang Trace.Event.Cons > 15.
     && share slang Trace.Event.Cons > share plagen Trace.Event.Cons +. 10.);
  let rplac m = share m Trace.Event.Rplaca +. share m Trace.Event.Rplacd in
  List.iter
    (fun (name, m) ->
       Alcotest.(check bool) ("pearl out-rplacs " ^ name) true (rplac pearl > rplac m))
    [ ("plagen", plagen); ("slang", slang); ("lyra", lyra); ("editor", editor) ]

let test_editor_np_outlier () =
  (* Table 3.1: EDITOR manipulates by far the most complex lists *)
  let np name =
    let w = Option.get (Workloads.Registry.find name) in
    let st = Analysis.Np_stats.analyze (Workloads.Registry.preprocessed w) in
    (Analysis.Np_stats.mean_n st, Analysis.Np_stats.mean_p st)
  in
  let en, ep = np "editor" in
  let pn, pp = np "pearl" in
  Alcotest.(check bool) "editor lists longer" true (en > pn);
  Alcotest.(check bool) "editor lists deeper" true (ep > pp)

let test_simulation_pipeline () =
  (* full path: workload -> trace -> preprocess -> SMALL simulation *)
  let w = Option.get (Workloads.Registry.find "pearl") in
  let pre = Workloads.Registry.preprocessed w in
  let stats =
    Core.Simulator.run
      { Core.Simulator.default_config with
        table_size = 512;
        cache = Some { Core.Simulator.cache_lines = 512; cache_line_size = 1 } }
      pre
  in
  Alcotest.(check bool) "no true overflow" false stats.Core.Simulator.true_overflow;
  Alcotest.(check bool) "hit rate sane" true
    (Core.Simulator.lpt_hit_rate stats > 0.3 && Core.Simulator.lpt_hit_rate stats < 1.);
  (* Table 5.2's magnitude check: 1-4 refops per primitive access *)
  let per_prim =
    float_of_int stats.Core.Simulator.lpt.Core.Lpt.refops
    /. float_of_int stats.Core.Simulator.events
  in
  Alcotest.(check bool) "refops per primitive in the paper's 1-8 band" true
    (per_prim > 0.5 && per_prim < 10.)

let test_list_sets_on_real_trace () =
  (* the Chapter 3 headline on a real trace: a handful of list sets cover
     most of the references *)
  let w = Option.get (Workloads.Registry.find "editor") in
  let pre = Workloads.Registry.preprocessed w in
  let r = Analysis.List_sets.partition ~separation:0.10 pre in
  let for80 = Analysis.List_sets.sets_for_coverage r 0.8 in
  Alcotest.(check bool) "few sets cover 80% of references" true (for80 <= 40);
  let stream = Analysis.List_sets.set_id_stream ~separation:0.10 pre in
  let lru = Analysis.Lru_stack.analyze stream in
  Alcotest.(check bool) "stack depth 4 captures most accesses" true
    (Analysis.Lru_stack.hit_fraction lru 4 > 0.6)

(* ---- cache keys and derived forms ---- *)

(* The result-cache keys of the five workloads.  A change to the tracer,
   the encoder or the interpreter that moves one of these re-keys every
   stored result for that workload. *)
let golden_digests =
  [ ("lyra", "dfd7d98f6eac2135d762a4b8077d1e44");
    ("plagen", "bc98b8146c0750c0797f341b90ccdfda");
    ("slang", "8c97c483e3907f57062a33dfe548a216");
    ("editor", "6193a161ec0b780e4fc5dba57b2d6b79");
    ("pearl", "a69b863a5fb02ef7232a8d1affb5f262") ]

let test_golden_digests () =
  List.iter
    (fun (name, digest) ->
       let w = Option.get (Workloads.Registry.find name) in
       Alcotest.(check string) (name ^ " registry digest") digest (Workloads.Registry.digest w);
       Alcotest.(check string) (name ^ " cache key") digest
         (Server.Exec.trace_digest (Server.Job.Workload name)))
    golden_digests

(* The registry keeps only a streamed encoding; everything derived from
   it must equal what the capture path gives.  Lyra is covered by its
   golden digest alone, for test time. *)
let test_derived_forms () =
  List.iter
    (fun name ->
       let w = Option.get (Workloads.Registry.find name) in
       let input = w.Workloads.Registry.input and source = w.Workloads.Registry.source in
       let capture = Lisp.Tracer.trace_program ~input source in
       Alcotest.(check bool) (name ^ ": streamed encoding = encoded capture") true
         (String.equal (Lisp.Tracer.encode_program ~input source)
            (Trace.Binary.to_string capture));
       Alcotest.(check bool) (name ^ ": registry trace = traced capture") true
         (Trace.Capture.events (Workloads.Registry.trace w) = Trace.Capture.events capture);
       let pre = Trace.Preprocess.run capture in
       Alcotest.(check bool) (name ^ ": registry preprocessed = preprocessed capture") true
         (Workloads.Registry.preprocessed w = pre);
       Alcotest.(check bool) (name ^ ": registry packed = packed capture") true
         (Core.Simulator.pack (Workloads.Registry.preprocessed w) = Core.Simulator.pack pre);
       let st = Trace.Capture.stats capture in
       Alcotest.(check bool) (name ^ ": stats job off the source = capture's stats") true
         (Server.Exec.stats (Server.Exec.preprocessed_of_source (Server.Job.Workload name))
          = Server.Exec.Stats_out
              { events = Trace.Capture.length capture;
                primitives = st.Trace.Capture.primitives;
                functions = st.Trace.Capture.functions;
                max_depth = st.Trace.Capture.max_depth;
                distinct_lists = pre.Trace.Preprocess.distinct_lists;
                mix = (Analysis.Prim_mix.analyze pre).Analysis.Prim_mix.counts }))
    [ "plagen"; "slang"; "editor"; "pearl" ]

let () =
  Alcotest.run "workloads"
    [ ("programs",
       [ Alcotest.test_case "plagen output" `Slow test_plagen_output;
         Alcotest.test_case "slang decodes" `Slow test_slang_decodes_bcd;
         Alcotest.test_case "slang one-hot" `Slow test_slang_one_hot;
         Alcotest.test_case "lyra violations" `Slow test_lyra_finds_violations;
         Alcotest.test_case "editor session" `Slow test_editor_session;
         Alcotest.test_case "pearl updates" `Slow test_pearl_updates ]);
      ("characterisation",
       [ Alcotest.test_case "fig 3.1 shape" `Slow test_traces_characterised;
         Alcotest.test_case "editor n/p outlier" `Slow test_editor_np_outlier ]);
      ("pipeline",
       [ Alcotest.test_case "simulation" `Slow test_simulation_pipeline;
         Alcotest.test_case "list sets" `Slow test_list_sets_on_real_trace ]);
      ("encoding",
       [ Alcotest.test_case "golden digests" `Slow test_golden_digests;
         Alcotest.test_case "derived forms" `Slow test_derived_forms ]) ]
