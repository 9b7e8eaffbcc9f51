(* Tests for the SMALL core: LPT mechanics (allocation, reference
   counting with lazy child decrement, split/hit caching, compression,
   cycle recovery, split reference counts), the heap-controller model,
   the trace-driven simulator and the ordered-traversal analysis. *)

let mk_lpt ?(size = 16) ?(policy = Core.Lpt.Compress_one) ?(split_counts = false)
    ?(eager = false) () =
  let heap = Core.Heap_model.create ~seed:3 () in
  ( Core.Lpt.create ~size ~policy ~split_counts ~eager_decrement:eager ~heap ~seed:17 (),
    heap )

(* ---- heap model ---- *)

let test_heap_model () =
  let h = Core.Heap_model.create ~seed:1 () in
  let a = Core.Heap_model.read_in h ~size:5 in
  let b = Core.Heap_model.read_in h ~size:3 in
  Alcotest.(check bool) "objects get disjoint ranges" true (b >= a + 5);
  let car, cdr = Core.Heap_model.split h ~addr:b in
  Alcotest.(check bool) "split children land near the parent" true
    (car > b && car <= b + 50 && cdr > b && cdr <= b + 50);
  let c = Core.Heap_model.counters h in
  Alcotest.(check int) "reads" 2 c.Core.Heap_model.reads;
  Alcotest.(check int) "splits" 1 c.Core.Heap_model.splits

(* ---- LPT basics ---- *)

let test_lpt_readin_and_free () =
  let lpt, _ = mk_lpt () in
  let id = Core.Lpt.read_in lpt ~size:4 in
  Core.Lpt.stack_incr lpt id;
  Alcotest.(check int) "live" 1 (Core.Lpt.live lpt);
  Alcotest.(check int) "one get" 1 (Core.Lpt.counters lpt).Core.Lpt.gets;
  Core.Lpt.stack_decr lpt id;
  Alcotest.(check int) "freed on zero" 0 (Core.Lpt.live lpt);
  Alcotest.(check bool) "not live" false (Core.Lpt.is_live lpt id)

let test_lpt_split_hit_miss () =
  let lpt, _ = mk_lpt () in
  let id = Core.Lpt.read_in lpt ~size:6 in
  Core.Lpt.stack_incr lpt id;
  (* first car access misses and splits; both children materialise *)
  (match Core.Lpt.get_car lpt id with
   | Core.Lpt.Miss _ -> ()
   | Hit _ | Hit_atom -> Alcotest.fail "first access must miss");
  Alcotest.(check int) "split created both children" 3 (Core.Lpt.live lpt);
  (* subsequent car and cdr are hits (Fig 4.5 / §5.3.1) *)
  (match Core.Lpt.get_car lpt id with
   | Core.Lpt.Hit _ | Core.Lpt.Hit_atom -> ()
   | Miss _ -> Alcotest.fail "second access must hit");
  (match Core.Lpt.get_cdr lpt id with
   | Core.Lpt.Hit _ | Core.Lpt.Hit_atom -> ()
   | Miss _ -> Alcotest.fail "cdr after split must hit");
  let c = Core.Lpt.counters lpt in
  Alcotest.(check int) "hits" 2 c.Core.Lpt.hits;
  Alcotest.(check int) "misses" 1 c.Core.Lpt.misses

let test_lpt_cons_no_heap () =
  let lpt, heap = mk_lpt () in
  let a = Core.Lpt.read_in lpt ~size:2 in
  Core.Lpt.stack_incr lpt a;
  let b = Core.Lpt.read_in lpt ~size:2 in
  Core.Lpt.stack_incr lpt b;
  let reads_before = (Core.Heap_model.counters heap).Core.Heap_model.reads in
  let z = Core.Lpt.cons lpt ~car:(Some a) ~cdr:(Some b) in
  Core.Lpt.stack_incr lpt z;
  Alcotest.(check int) "cons is pure endo-structure: no heap read"
    reads_before (Core.Heap_model.counters heap).Core.Heap_model.reads;
  (* consing counts one internal reference on each child *)
  Alcotest.(check int) "a referenced by z and the stack" 2 (Core.Lpt.refcount lpt a);
  (* accessing the cons is a hit immediately *)
  (match Core.Lpt.get_car lpt z with
   | Core.Lpt.Hit c -> Alcotest.(check int) "car is a" a c
   | Miss _ | Hit_atom -> Alcotest.fail "cons car must hit")

let test_lpt_lazy_child_decrement () =
  let lpt, _ = mk_lpt () in
  let a = Core.Lpt.read_in lpt ~size:2 in
  Core.Lpt.stack_incr lpt a;
  let z = Core.Lpt.cons lpt ~car:(Some a) ~cdr:None in
  Core.Lpt.stack_incr lpt z;
  Core.Lpt.stack_decr lpt z;
  (* z is freed, but a's count from z survives until z's slot is reused *)
  Alcotest.(check bool) "z freed" false (Core.Lpt.is_live lpt z);
  Alcotest.(check int) "a still holds z's deferred reference" 2 (Core.Lpt.refcount lpt a);
  (* z sits on top of the free stack: the next alloc reuses it *)
  let fresh = Core.Lpt.read_in lpt ~size:1 in
  Alcotest.(check int) "LIFO reuse of the freed entry" z fresh;
  Alcotest.(check int) "deferred decrement happened on reuse" 1 (Core.Lpt.refcount lpt a)

let test_lpt_eager_decrement () =
  let lpt, _ = mk_lpt ~eager:true () in
  let a = Core.Lpt.read_in lpt ~size:2 in
  Core.Lpt.stack_incr lpt a;
  let z = Core.Lpt.cons lpt ~car:(Some a) ~cdr:None in
  Core.Lpt.stack_incr lpt z;
  Core.Lpt.stack_decr lpt z;
  Alcotest.(check int) "eager: child decremented immediately" 1 (Core.Lpt.refcount lpt a)

let test_lpt_rplaca () =
  let lpt, _ = mk_lpt () in
  let x = Core.Lpt.read_in lpt ~size:4 in
  Core.Lpt.stack_incr lpt x;
  let y = Core.Lpt.read_in lpt ~size:2 in
  Core.Lpt.stack_incr lpt y;
  (* rplaca before any split: miss, split first (Fig 4.6) *)
  let hit = Core.Lpt.rplaca lpt x (Some y) in
  Alcotest.(check bool) "first rplaca misses" false hit;
  (match Core.Lpt.get_car lpt x with
   | Core.Lpt.Hit c -> Alcotest.(check int) "car replaced" y c
   | Miss _ | Hit_atom -> Alcotest.fail "must hit after rplaca");
  Alcotest.(check int) "y gains the internal reference" 2 (Core.Lpt.refcount lpt y);
  (* replace with an atom: field cleared, y released by the table *)
  let hit2 = Core.Lpt.rplaca lpt x None in
  Alcotest.(check bool) "second rplaca hits" true hit2;
  Alcotest.(check int) "y dropped to the stack reference" 1 (Core.Lpt.refcount lpt y)

let test_lpt_rplaca_same_child () =
  (* replacing a part with itself must not transiently free it *)
  let lpt, _ = mk_lpt () in
  let x = Core.Lpt.read_in lpt ~size:4 in
  Core.Lpt.stack_incr lpt x;
  let y = Core.Lpt.read_in lpt ~size:2 in
  ignore (Core.Lpt.rplaca lpt x (Some y));   (* y: internal ref only *)
  ignore (Core.Lpt.rplaca lpt x (Some y));
  Alcotest.(check bool) "y survives self-replacement" true (Core.Lpt.is_live lpt y);
  Alcotest.(check int) "single internal reference" 1 (Core.Lpt.refcount lpt y)

(* ---- overflow handling ---- *)

let test_pseudo_overflow_compression () =
  (* Fill a tiny table with a compressible parent, then allocate: the
     pseudo overflow must be resolved by compression (Fig 4.8). *)
  let lpt, _ = mk_lpt ~size:4 () in
  let parent = Core.Lpt.read_in lpt ~size:8 in
  Core.Lpt.stack_incr lpt parent;
  ignore (Core.Lpt.get_car lpt parent);  (* splits: 3 live, children leaf refc=1 *)
  let filler = Core.Lpt.read_in lpt ~size:1 in
  Core.Lpt.stack_incr lpt filler;
  Alcotest.(check int) "table full" 4 (Core.Lpt.live lpt);
  (* next allocation triggers compression of parent's children *)
  let fresh = Core.Lpt.read_in lpt ~size:1 in
  Core.Lpt.stack_incr lpt fresh;
  let c = Core.Lpt.counters lpt in
  Alcotest.(check int) "one pseudo overflow" 1 c.Core.Lpt.pseudo_overflows;
  Alcotest.(check int) "one compression" 1 c.Core.Lpt.compressions;
  Alcotest.(check bool) "parent survives compression" true (Core.Lpt.is_live lpt parent);
  (* the parent's fields are gone: the next access re-splits (make room
     for the two child entries first) *)
  Core.Lpt.stack_decr lpt fresh;
  (match Core.Lpt.get_car lpt parent with
   | Core.Lpt.Miss _ -> ()
   | Hit _ | Hit_atom -> Alcotest.fail "compressed parent must miss")

let test_true_overflow () =
  (* a table full of stack-referenced leaves cannot be compressed *)
  let lpt, _ = mk_lpt ~size:4 () in
  for _ = 1 to 4 do
    Core.Lpt.stack_incr lpt (Core.Lpt.read_in lpt ~size:1)
  done;
  Alcotest.check_raises "true overflow" Core.Lpt.True_overflow (fun () ->
      ignore (Core.Lpt.read_in lpt ~size:1))

let test_cycle_recovery () =
  (* build a 2-cycle via rplacd, drop the external reference, fill the
     table: the allocator must break the dead cycle rather than
     truly overflow (§4.3.2.3) *)
  let lpt, _ = mk_lpt ~size:6 () in
  let a = Core.Lpt.read_in lpt ~size:2 in
  Core.Lpt.stack_incr lpt a;
  let b = Core.Lpt.cons lpt ~car:None ~cdr:(Some a) in
  Core.Lpt.stack_incr lpt b;
  ignore (Core.Lpt.rplaca lpt a (Some b));  (* may split a first *)
  (* drop the stack refs: a and b now only reference each other *)
  Core.Lpt.stack_decr lpt a;
  Core.Lpt.stack_decr lpt b;
  Alcotest.(check bool) "cycle keeps itself alive" true
    (Core.Lpt.is_live lpt a && Core.Lpt.is_live lpt b);
  (* exhaust the table; allocation must reclaim the cycle *)
  let rec fill acc =
    match Core.Lpt.read_in lpt ~size:1 with
    | id -> Core.Lpt.stack_incr lpt id; if List.length acc < 10 then fill (id :: acc) else acc
    | exception Core.Lpt.True_overflow -> acc
  in
  ignore (fill []);
  let c = Core.Lpt.counters lpt in
  Alcotest.(check bool) "cycle recovery ran" true (c.Core.Lpt.cycle_recoveries >= 1)

(* ---- split reference counts (Table 5.3) ---- *)

let test_split_counts () =
  let lpt, _ = mk_lpt ~split_counts:true () in
  let id = Core.Lpt.read_in lpt ~size:2 in
  let before = (Core.Lpt.counters lpt).Core.Lpt.refops in
  (* many stack refs: only the 0->1 transition reaches the LP *)
  for _ = 1 to 10 do
    Core.Lpt.stack_incr lpt id
  done;
  let c = Core.Lpt.counters lpt in
  Alcotest.(check int) "one LP refop (the StackBit set)" 1 (c.Core.Lpt.refops - before);
  Alcotest.(check int) "ten EP-side ops" 10 c.Core.Lpt.ep_refops;
  Alcotest.(check int) "max stack count tracked" 10 c.Core.Lpt.max_stack_count;
  (* dropping all of them: entry dies on the last *)
  for _ = 1 to 10 do
    Core.Lpt.stack_decr lpt id
  done;
  Alcotest.(check bool) "freed once stack refs vanish" false (Core.Lpt.is_live lpt id)

let test_split_counts_vs_plain_refops () =
  (* the split scheme must slash LP refcount traffic (Table 5.3) *)
  let traffic split_counts =
    let lpt, _ = mk_lpt ~size:64 ~split_counts () in
    for _ = 1 to 10 do
      let id = Core.Lpt.read_in lpt ~size:2 in
      for _ = 1 to 20 do
        Core.Lpt.stack_incr lpt id
      done;
      for _ = 1 to 20 do
        Core.Lpt.stack_decr lpt id
      done
    done;
    (Core.Lpt.counters lpt).Core.Lpt.refops
  in
  Alcotest.(check bool) "near order-of-magnitude reduction" true
    (traffic false > 5 * traffic true)

(* ---- simulator ---- *)

let synth_trace ?(length = 4000) ?(seed = 42) () =
  Trace.Preprocess.run (Trace.Synth.generate { Trace.Synth.default with length; seed })

(* The fingerprint is the cache-key contract: its exact text must not
   drift (a drift silently invalidates every persisted result), and the
   memoized digest must be the plain MD5 of it. *)
let test_config_fingerprint_text () =
  Alcotest.(check string) "golden fingerprint"
    "simconfig:v1 size=2048 policy=one arg=0x1.3333333333333p-1 \
     loc=0x1.3333333333333p-2 bind=0x1.47ae147ae147bp-7 \
     read=0x1.47ae147ae147bp-7 seed=1 split=false eager=false cache=none"
    (Core.Simulator.config_fingerprint Core.Simulator.default_config);
  let c =
    { Core.Simulator.default_config with
      table_size = 512; seed = 7; split_counts = true;
      cache = Some { Core.Simulator.cache_lines = 64; cache_line_size = 4 } }
  in
  Alcotest.(check string) "golden fingerprint with cache"
    "simconfig:v1 size=512 policy=one arg=0x1.3333333333333p-1 \
     loc=0x1.3333333333333p-2 bind=0x1.47ae147ae147bp-7 \
     read=0x1.47ae147ae147bp-7 seed=7 split=true eager=false cache=64/4"
    (Core.Simulator.config_fingerprint c)

let test_config_digest_memoized () =
  let c = Core.Simulator.default_config in
  Alcotest.(check string) "digest is MD5 of the fingerprint"
    (Digest.to_hex (Digest.string (Core.Simulator.config_fingerprint c)))
    (Core.Simulator.config_digest c);
  (* memoization: structurally equal configs share one rendered string *)
  let c' = { c with table_size = c.Core.Simulator.table_size } in
  Alcotest.(check bool) "fingerprint is computed once per config" true
    (Core.Simulator.config_fingerprint c == Core.Simulator.config_fingerprint c');
  Alcotest.(check bool) "distinct configs digest differently" true
    (Core.Simulator.config_digest c
     <> Core.Simulator.config_digest { c with Core.Simulator.seed = 2 })

let test_simulator_runs () =
  let trace = synth_trace () in
  let stats = Core.Simulator.run Core.Simulator.default_config trace in
  Alcotest.(check bool) "no overflow at 2048 entries" false stats.Core.Simulator.true_overflow;
  Alcotest.(check bool) "simulated all prims" true (stats.Core.Simulator.events > 3900);
  Alcotest.(check bool) "some hits" true (stats.Core.Simulator.lpt.Core.Lpt.hits > 0);
  Alcotest.(check bool) "some misses" true (stats.Core.Simulator.lpt.Core.Lpt.misses > 0);
  Alcotest.(check bool) "peak within table" true
    (stats.Core.Simulator.peak_lpt <= 2048);
  Alcotest.(check bool) "avg <= peak" true
    (stats.Core.Simulator.avg_lpt <= float_of_int stats.Core.Simulator.peak_lpt)

let test_simulator_deterministic () =
  let trace = synth_trace () in
  let s1 = Core.Simulator.run Core.Simulator.default_config trace in
  let s2 = Core.Simulator.run Core.Simulator.default_config trace in
  Alcotest.(check int) "same refops" s1.Core.Simulator.lpt.Core.Lpt.refops
    s2.Core.Simulator.lpt.Core.Lpt.refops;
  Alcotest.(check int) "same peak" s1.Core.Simulator.peak_lpt s2.Core.Simulator.peak_lpt

let test_simulator_seed_sensitivity () =
  let trace = synth_trace () in
  let s1 = Core.Simulator.run Core.Simulator.default_config trace in
  let s2 = Core.Simulator.run { Core.Simulator.default_config with seed = 99 } trace in
  Alcotest.(check bool) "different seeds, different runs" true
    (s1.Core.Simulator.lpt.Core.Lpt.refops <> s2.Core.Simulator.lpt.Core.Lpt.refops
     || s1.Core.Simulator.peak_lpt <> s2.Core.Simulator.peak_lpt)

let test_simulator_knee () =
  (* Fig 5.1's shape: below the knee the peak equals the table size
     (pseudo overflows clamp it); above it, growing the table leaves the
     peak unchanged *)
  let trace = synth_trace ~length:3000 () in
  let size, at_knee =
    Core.Simulator.min_table_size Core.Simulator.default_config
      (Core.Simulator.pack trace)
  in
  Alcotest.(check bool) "knee found" true (size > 4);
  Alcotest.(check int) "overflow-free at the knee" 0
    at_knee.Core.Simulator.lpt.Core.Lpt.pseudo_overflows;
  let bigger =
    Core.Simulator.run { Core.Simulator.default_config with table_size = 2 * size } trace
  in
  Alcotest.(check int) "peak is flat past the knee" at_knee.Core.Simulator.peak_lpt
    bigger.Core.Simulator.peak_lpt;
  let smaller =
    Core.Simulator.run { Core.Simulator.default_config with table_size = max 8 (size / 2) }
      trace
  in
  Alcotest.(check bool) "below the knee: overflows happen" true
    (smaller.Core.Simulator.lpt.Core.Lpt.pseudo_overflows > 0
     || smaller.Core.Simulator.true_overflow)

let test_knee_jobs_invariant () =
  (* the parallel probe runs must walk the same decision sequence as the
     sequential search: identical knee for every jobs count *)
  let trace = synth_trace ~length:3000 () in
  let seq, _ =
    Core.Simulator.min_table_size ~jobs:1 Core.Simulator.default_config
      (Core.Simulator.pack trace)
  in
  List.iter
    (fun jobs ->
       let par, stats =
         Core.Simulator.min_table_size ~jobs Core.Simulator.default_config
           (Core.Simulator.pack trace)
       in
       Alcotest.(check int) (Printf.sprintf "same knee with %d jobs" jobs) seq par;
       Alcotest.(check int) "overflow-free at the knee" 0
         stats.Core.Simulator.lpt.Core.Lpt.pseudo_overflows)
    [ 2; 3; 5 ]

let test_simulator_compress_all_lower_avg () =
  (* §5.2.3: Compress-All keeps average occupancy at or below
     Compress-One's (when overflows actually occur) *)
  let trace = synth_trace ~length:3000 () in
  let size, _ =
    Core.Simulator.min_table_size Core.Simulator.default_config
      (Core.Simulator.pack trace)
  in
  let small = max 16 (size * 2 / 3) in
  let run policy =
    Core.Simulator.run
      { Core.Simulator.default_config with table_size = small; policy } trace
  in
  let one = run Core.Lpt.Compress_one in
  let all = run Core.Lpt.Compress_all in
  if one.Core.Simulator.true_overflow || all.Core.Simulator.true_overflow then ()
  else
    Alcotest.(check bool) "compress-all <= compress-one average" true
      (all.Core.Simulator.avg_lpt <= one.Core.Simulator.avg_lpt +. 1.0)

let test_simulator_cache_comparison () =
  let trace = synth_trace () in
  let cfg =
    { Core.Simulator.default_config with
      table_size = 512;
      cache = Some { Core.Simulator.cache_lines = 512; cache_line_size = 1 } }
  in
  let stats = Core.Simulator.run cfg trace in
  Alcotest.(check bool) "cache exercised" true (stats.Core.Simulator.cache_accesses > 0);
  Alcotest.(check bool) "rates in range" true
    (Core.Simulator.lpt_hit_rate stats >= 0.
     && Core.Simulator.lpt_hit_rate stats <= 1.
     && Core.Simulator.cache_hit_rate stats >= 0.
     && Core.Simulator.cache_hit_rate stats <= 1.)

(* ---- traversal analysis (§5.3.1) ---- *)

let test_traversal_matches_prediction () =
  List.iter
    (fun src ->
       let d = Sexp.parse src in
       let misses_p, hits_p = Core.Traversal.predicted d in
       List.iter
         (fun order ->
            let r = Core.Traversal.simulate ~order d in
            Alcotest.(check int) (src ^ " misses") misses_p r.Core.Traversal.misses;
            Alcotest.(check int) (src ^ " hits") hits_p r.Core.Traversal.hits)
         [ Sexp.Tree.Pre; Sexp.Tree.In; Sexp.Tree.Post ])
    [ "(a)"; "(a b c)"; "(a (b c) d)"; "(((a b) c d) e f g)"; "(a (b (c (d e) f) g))" ]

let test_traversal_rate_approaches_75 () =
  let d = Sexp.Datum.of_ints (List.init 200 (fun i -> i)) in
  let r = Core.Traversal.simulate ~order:Sexp.Tree.Pre d in
  Alcotest.(check bool) "hit rate ~ 75%" true
    (Float.abs (r.Core.Traversal.hit_rate -. 0.75) < 0.01)

let gen_pure_list =
  QCheck.Gen.(
    let atom = map (fun n -> Sexp.Datum.Int n) (int_range 0 9) in
    let rec go depth =
      if depth = 0 then atom
      else
        frequency
          [ (3, atom);
            (2, int_range 1 5 >>= fun len ->
             map Sexp.Datum.list (list_repeat len (go (depth - 1)))) ]
    in
    int_range 1 6 >>= fun len -> map Sexp.Datum.list (list_repeat len (go 3)))

let prop_traversal =
  QCheck.Test.make ~name:"traversal simulation = n+p / 3n+3p+1 prediction" ~count:100
    (QCheck.make ~print:Sexp.to_string gen_pure_list) (fun d ->
      let misses_p, hits_p = Core.Traversal.predicted d in
      let r = Core.Traversal.simulate ~order:Sexp.Tree.In d in
      r.Core.Traversal.misses = misses_p && r.Core.Traversal.hits = hits_p)

let prop_overflow_mode_completes =
  (* whatever the table size, the simulator must process every primitive
     event (degrading to overflow mode rather than truncating) *)
  QCheck.Test.make ~name:"simulator completes at any table size" ~count:25
    QCheck.(4 -- 200) (fun size ->
      let trace = synth_trace ~length:1500 () in
      let stats =
        Core.Simulator.run { Core.Simulator.default_config with table_size = size } trace
      in
      stats.Core.Simulator.events
      = (let p = ref 0 in
         Array.iter
           (fun code -> if Trace.Preprocess.kind code >= 2 then incr p)
           trace.Trace.Preprocess.codes;
         !p)
      && stats.Core.Simulator.peak_lpt <= size)

let prop_lpt_refcount_sanity =
  (* after an arbitrary sequence of reads/conses/drops, live entries have
     positive refcounts and the free list never overlaps live entries *)
  QCheck.Test.make ~name:"LPT conserves entries" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (0 -- 2))
    (fun ops ->
      let lpt, _ = mk_lpt ~size:256 () in
      let held = ref [] in
      List.iter
        (fun op ->
           match op with
           | 0 ->
             let id = Core.Lpt.read_in lpt ~size:2 in
             Core.Lpt.stack_incr lpt id;
             held := id :: !held
           | 1 ->
             (match !held with
              | a :: b :: _ ->
                let z = Core.Lpt.cons lpt ~car:(Some a) ~cdr:(Some b) in
                Core.Lpt.stack_incr lpt z;
                held := z :: !held
              | _ -> ())
           | _ ->
             (match !held with
              | id :: rest ->
                Core.Lpt.stack_decr lpt id;
                held := rest
              | [] -> ()))
        ops;
      (* every held id is live with refcount >= 1 *)
      List.for_all
        (fun id -> Core.Lpt.is_live lpt id && Core.Lpt.refcount lpt id >= 1)
        !held)

let () =
  Alcotest.run "core"
    [ ("heap_model", [ Alcotest.test_case "addresses" `Quick test_heap_model ]);
      ("lpt",
       [ Alcotest.test_case "read-in and free" `Quick test_lpt_readin_and_free;
         Alcotest.test_case "split hit/miss" `Quick test_lpt_split_hit_miss;
         Alcotest.test_case "cons without heap" `Quick test_lpt_cons_no_heap;
         Alcotest.test_case "lazy child decrement" `Quick test_lpt_lazy_child_decrement;
         Alcotest.test_case "eager decrement" `Quick test_lpt_eager_decrement;
         Alcotest.test_case "rplaca" `Quick test_lpt_rplaca;
         Alcotest.test_case "rplaca same child" `Quick test_lpt_rplaca_same_child ]);
      ("overflow",
       [ Alcotest.test_case "pseudo overflow compresses" `Quick test_pseudo_overflow_compression;
         Alcotest.test_case "true overflow" `Quick test_true_overflow;
         Alcotest.test_case "cycle recovery" `Quick test_cycle_recovery ]);
      ("split_counts",
       [ Alcotest.test_case "stackbit transitions" `Quick test_split_counts;
         Alcotest.test_case "traffic reduction" `Quick test_split_counts_vs_plain_refops ]);
      ("simulator",
       [ Alcotest.test_case "fingerprint text" `Quick test_config_fingerprint_text;
         Alcotest.test_case "digest memoized" `Quick test_config_digest_memoized;
         Alcotest.test_case "runs" `Quick test_simulator_runs;
         Alcotest.test_case "deterministic" `Quick test_simulator_deterministic;
         Alcotest.test_case "seed sensitivity" `Quick test_simulator_seed_sensitivity;
         Alcotest.test_case "knee" `Quick test_simulator_knee;
         Alcotest.test_case "knee jobs-invariant" `Quick test_knee_jobs_invariant;
         Alcotest.test_case "compression policy" `Quick test_simulator_compress_all_lower_avg;
         Alcotest.test_case "cache comparison" `Quick test_simulator_cache_comparison ]);
      ("traversal",
       [ Alcotest.test_case "matches prediction" `Quick test_traversal_matches_prediction;
         Alcotest.test_case "75% limit" `Quick test_traversal_rate_approaches_75 ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_traversal; prop_lpt_refcount_sanity; prop_overflow_mode_completes ]) ]
