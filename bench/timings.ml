(* Bechamel micro-benchmarks of the hot paths: LPT operation cost, cache
   access cost, Mattson stack analysis (Fenwick vs move-to-front),
   list-set partitioning and the interpreter itself.  Run with
   `dune exec bench/main.exe -- --timings`. *)

open Bechamel
open Toolkit

let lpt_ops =
  Test.make ~name:"lpt: read_in + car + cdr + release"
    (Staged.stage (fun () ->
         let heap = Core.Heap_model.create ~seed:1 () in
         let lpt =
           Core.Lpt.create ~size:512 ~policy:Core.Lpt.Compress_one
             ~split_counts:false ~eager_decrement:false ~heap ~seed:2 ()
         in
         for _ = 1 to 100 do
           let id = Core.Lpt.read_in lpt ~size:6 in
           Core.Lpt.stack_incr lpt id;
           ignore (Core.Lpt.get_car lpt id);
           ignore (Core.Lpt.get_cdr lpt id);
           Core.Lpt.stack_decr lpt id
         done))

let cache_ops =
  let cache = Cache.Lru_cache.create ~lines:512 ~line_size:4 in
  let rng = Util.Rng.create ~seed:3 in
  Test.make ~name:"cache: 100 LRU accesses"
    (Staged.stage (fun () ->
         for _ = 1 to 100 do
           ignore (Cache.Lru_cache.access cache (Util.Rng.int rng 8192))
         done))

let synth_trace = lazy (Trace.Synth.generate { Trace.Synth.default with length = 2000 })

let preprocess =
  Test.make ~name:"trace: preprocess 2k-event capture"
    (Staged.stage (fun () -> ignore (Trace.Preprocess.run (Lazy.force synth_trace))))

let list_sets =
  let pre = lazy (Trace.Preprocess.run (Lazy.force synth_trace)) in
  Test.make ~name:"analysis: list-set partition"
    (Staged.stage (fun () ->
         ignore (Analysis.List_sets.partition (Lazy.force pre))))

(* The acceptance stream for the locality engine: 50k references over a
   few hundred distinct set ids, the regime of the Chapter 3 figures on
   long synthetic traces.  The Fenwick [analyze] must beat the
   move-to-front [analyze_naive] by >= 5x here. *)
let lru_stream =
  lazy
    (let rng = Util.Rng.create ~seed:11 in
     Array.init 50_000 (fun _ -> Util.Rng.int rng 256))

let lru_fenwick =
  Test.make ~name:"analysis: stack distances, 50k refs (Fenwick)"
    (Staged.stage (fun () ->
         ignore (Analysis.Lru_stack.analyze (Lazy.force lru_stream))))

let lru_naive =
  Test.make ~name:"analysis: stack distances, 50k refs (naive MTF)"
    (Staged.stage (fun () ->
         ignore (Oracle.Naive_lru.analyze_naive (Lazy.force lru_stream))))

let simulator =
  let pre = lazy (Trace.Preprocess.run (Lazy.force synth_trace)) in
  Test.make ~name:"simulator: 2k-event SMALL run"
    (Staged.stage (fun () ->
         ignore (Core.Simulator.run Core.Simulator.default_config (Lazy.force pre))))

let interpreter =
  Test.make ~name:"interp: (fib 12)"
    (Staged.stage (fun () ->
         let i = Lisp.Interp.create () in
         ignore
           (Lisp.Interp.run_program i
              "(def fib (lambda (n) (cond ((lessp n 2) n) (t (+ (fib (- n 1)) (fib (- n 2))))))) (fib 12)")))

let emulator =
  let prog =
    Machine.Compile.parse_and_compile
      "(def fib (lambda (n) (cond ((lessp n 2) n) (t (+ (fib (- n 1)) (fib (- n 2))))))) (fib 12)"
  in
  Test.make ~name:"machine: compiled (fib 12)"
    (Staged.stage (fun () ->
         ignore (Machine.Emulator.run (Machine.Emulator.create prog))))

(* Runs the whole suite, prints one line per test and returns
   [(name, ns_per_run)] pairs ([None] when OLS produced no estimate) so
   the harness can serialise them with --json. *)
let benchmark () =
  let tests =
    [ lpt_ops; cache_ops; preprocess; list_sets; lru_fenwick; lru_naive;
      simulator; interpreter; emulator ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  List.concat_map
    (fun test ->
       let results = Benchmark.all cfg instances test in
       let ols =
         Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
           (Instance.monotonic_clock) results
       in
       Hashtbl.fold
         (fun name result acc ->
            match Bechamel.Analyze.OLS.estimates result with
            | Some [ est ] ->
              Printf.printf "  %-48s %12.0f ns/run\n" name est;
              (name, Some est) :: acc
            | _ ->
              Printf.printf "  %-48s (no estimate)\n" name;
              (name, None) :: acc)
         ols [])
    tests
