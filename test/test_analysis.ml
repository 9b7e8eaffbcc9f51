(* Tests for the Chapter 3 analyses: primitive mix, n/p statistics,
   list-set partitioning (with its separation constraint), LRU stack
   distances (Mattson vs naive simulation) and chaining detection. *)

module D = Sexp.Datum
module E = Trace.Event

let mk_capture events =
  let c = Trace.Capture.create () in
  List.iter (Trace.Capture.record c) events;
  c

let prim p args result = E.Prim { prim = p; args; result }

(* ---- primitive mix (Fig 3.1) ---- *)

let test_prim_mix () =
  let c =
    mk_capture
      [ prim E.Car [ Sexp.parse "(a)" ] (D.sym "a");
        prim E.Car [ Sexp.parse "(b)" ] (D.sym "b");
        prim E.Cdr [ Sexp.parse "(a)" ] D.Nil;
        prim E.Cons [ D.int 1; D.Nil ] (Sexp.parse "(1)");
        E.Call { name = "f"; nargs = 0 } ]
  in
  let mix = Analysis.Prim_mix.analyze (Trace.Preprocess.run c) in
  Alcotest.(check int) "total" 4 mix.Analysis.Prim_mix.total;
  Alcotest.(check (float 0.01)) "car 50%" 50. (Analysis.Prim_mix.pct mix E.Car);
  Alcotest.(check (float 0.01)) "cdr 25%" 25. (Analysis.Prim_mix.pct mix E.Cdr);
  Alcotest.(check (float 0.01)) "rplaca 0%" 0. (Analysis.Prim_mix.pct mix E.Rplaca)

(* ---- n/p statistics (Table 3.1) ---- *)

let test_np_stats () =
  let l1 = Sexp.parse "(a b c (d e) f g)" (* n=7 p=1 *) in
  let l2 = Sexp.parse "(x y)" (* n=2 p=0 *) in
  let c =
    mk_capture
      [ prim E.Car [ l1 ] (D.sym "a");
        prim E.Car [ l2 ] (D.sym "x");
        prim E.Car [ l1 ] (D.sym "a") (* dynamic stats: counted again *) ]
  in
  let st = Analysis.Np_stats.analyze (Trace.Preprocess.run c) in
  Alcotest.(check (float 0.01)) "mean n over references" ((7. +. 7. +. 2.) /. 3.)
    (Analysis.Np_stats.mean_n st);
  Alcotest.(check (float 0.01)) "mean p" (2. /. 3.) (Analysis.Np_stats.mean_p st)

(* ---- list sets (§3.3.2) ---- *)

(* A trace over two unrelated list families, accessed in interleaved
   bursts. *)
let family_trace () =
  let a = Sexp.parse "(a1 a2 a3 a4)" in
  let b = Sexp.parse "(b1 b2 b3 b4)" in
  let rec tails d = if D.is_nil d then [] else d :: tails (D.cdr d) in
  let walk l =
    List.concat_map
      (fun t -> [ prim E.Cdr [ t ] (D.cdr t); prim E.Car [ t ] (D.car t) ])
      (tails l)
  in
  mk_capture (walk a @ walk b @ walk a)

let test_list_sets_two_families () =
  let p = Trace.Preprocess.run (family_trace ()) in
  let r = Analysis.List_sets.partition ~separation:1.0 p in
  (* with an unbounded window the two families form exactly two sets *)
  Alcotest.(check int) "two structural locales" 2 (List.length r.Analysis.List_sets.sets);
  let sizes =
    List.sort compare (List.map (fun s -> s.Analysis.List_sets.size) r.Analysis.List_sets.sets)
  in
  (* every reference lands in a set *)
  Alcotest.(check int) "all refs covered" r.Analysis.List_sets.stream_length
    (List.fold_left ( + ) 0 sizes);
  (* family a is walked twice, so its set is the bigger one *)
  (match sizes with
   | [ small; large ] -> Alcotest.(check bool) "a-family set dominates" true (large > small)
   | _ -> Alcotest.fail "expected two sets")

let test_list_sets_separation () =
  (* with a tiny window, the second burst on family a opens a NEW set *)
  let p = Trace.Preprocess.run (family_trace ()) in
  let tight = Analysis.List_sets.partition_abs ~window:2 p in
  Alcotest.(check bool) "tight window splits sets" true
    (List.length tight.Analysis.List_sets.sets > 2)

let test_list_sets_lifetime () =
  let p = Trace.Preprocess.run (family_trace ()) in
  let r = Analysis.List_sets.partition ~separation:1.0 p in
  List.iter
    (fun s ->
       Alcotest.(check bool) "lifetime within stream" true
         (Analysis.List_sets.lifetime s >= 0
          && Analysis.List_sets.lifetime s < r.Analysis.List_sets.stream_length))
    r.Analysis.List_sets.sets

let test_coverage_curve () =
  let p = Trace.Preprocess.run (family_trace ()) in
  let r = Analysis.List_sets.partition ~separation:1.0 p in
  let curve = Analysis.List_sets.coverage_curve r in
  (* monotone, ends at 1.0 *)
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone curve);
  (match List.rev curve with
   | (_, last) :: _ -> Alcotest.(check (float 0.0001)) "covers everything" 1.0 last
   | [] -> Alcotest.fail "empty curve");
  Alcotest.(check int) "one set suffices for 50%" 1
    (Analysis.List_sets.sets_for_coverage r 0.5)

let test_set_id_stream () =
  let p = Trace.Preprocess.run (family_trace ()) in
  let stream = Analysis.List_sets.set_id_stream ~separation:1.0 p in
  Alcotest.(check int) "one set id per reference"
    (Trace.Preprocess.ref_count p)
    (Array.length stream);
  let distinct = List.sort_uniq compare (Array.to_list stream) in
  Alcotest.(check int) "two distinct sets" 2 (List.length distinct)

(* ---- Fenwick tree ---- *)

let test_fenwick_basic () =
  let t = Analysis.Fenwick.create 8 in
  Alcotest.(check int) "empty total" 0 (Analysis.Fenwick.total t);
  Analysis.Fenwick.add t 0 3;
  Analysis.Fenwick.add t 3 5;
  Analysis.Fenwick.add t 7 1;
  Analysis.Fenwick.add t 3 (-2);
  Alcotest.(check int) "prefix 0" 0 (Analysis.Fenwick.prefix t 0);
  Alcotest.(check int) "prefix 1" 3 (Analysis.Fenwick.prefix t 1);
  Alcotest.(check int) "prefix 4" 6 (Analysis.Fenwick.prefix t 4);
  Alcotest.(check int) "range [3,8)" 4 (Analysis.Fenwick.range t 3 8);
  Alcotest.(check int) "empty range" 0 (Analysis.Fenwick.range t 5 5);
  Alcotest.(check int) "total" 7 (Analysis.Fenwick.total t)

let prop_fenwick_prefix_sums =
  (* prefix sums must match a plain array fold under random updates *)
  QCheck.Test.make ~name:"Fenwick prefix = array fold" ~count:200
    QCheck.(list (pair (0 -- 31) (-5 -- 5)))
    (fun updates ->
      let n = 32 in
      let t = Analysis.Fenwick.create n in
      let reference = Array.make n 0 in
      List.iter
        (fun (i, d) ->
           Analysis.Fenwick.add t i d;
           reference.(i) <- reference.(i) + d)
        updates;
      let ok = ref true in
      for i = 0 to n do
        let expect = Array.fold_left ( + ) 0 (Array.sub reference 0 i) in
        if Analysis.Fenwick.prefix t i <> expect then ok := false
      done;
      !ok)

(* ---- LRU stack distances (Fig 3.7) ---- *)

let test_lru_basic () =
  let r = Analysis.Lru_stack.analyze [| 1; 2; 1; 3; 2; 1 |] in
  (* 1@d? accesses: 1 cold; 2 cold; 1 dist2; 3 cold; 2 dist3; 1 dist3 *)
  Alcotest.(check int) "cold misses" 3 r.Analysis.Lru_stack.cold;
  Alcotest.(check (float 0.001)) "depth-2 captures 1/6" (1. /. 6.)
    (Analysis.Lru_stack.hit_fraction r 2);
  Alcotest.(check (float 0.001)) "depth-3 captures 3/6" 0.5
    (Analysis.Lru_stack.hit_fraction r 3)

let sorted_histogram r =
  List.sort compare
    (Hashtbl.fold (fun d c acc -> (d, c) :: acc) r.Analysis.Lru_stack.distances [])

(* Streams of several lengths and alphabet widths: the Fenwick engine
   must reproduce the move-to-front reference exactly — same distance
   histogram, same cold-miss and total counts. *)
let prop_fenwick_equals_mtf =
  let stream_gen =
    QCheck.Gen.(
      int_range 1 48 >>= fun alphabet ->
      int_range 0 1500 >>= fun len ->
      list_size (return len) (int_range 0 (alphabet - 1)))
  in
  QCheck.Test.make ~name:"Fenwick analyze = move-to-front analyze_naive" ~count:100
    (QCheck.make ~print:QCheck.Print.(list int) stream_gen)
    (fun xs ->
      let stream = Array.of_list xs in
      let fast = Analysis.Lru_stack.analyze stream in
      let slow = Oracle.Naive_lru.analyze_naive stream in
      fast.Analysis.Lru_stack.cold = slow.Analysis.Lru_stack.cold
      && fast.Analysis.Lru_stack.total = slow.Analysis.Lru_stack.total
      && sorted_histogram fast = sorted_histogram slow)

let prop_mattson_equals_naive =
  (* the one-pass distances must reproduce per-size stack simulation *)
  QCheck.Test.make ~name:"Mattson = naive LRU simulation" ~count:100
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 60) (0 -- 8)) (1 -- 6))
    (fun (xs, size) ->
      let stream = Array.of_list xs in
      let r = Analysis.Lru_stack.analyze stream in
      let hits_mattson =
        int_of_float
          (Float.round
             (Analysis.Lru_stack.hit_fraction r size *. float_of_int r.Analysis.Lru_stack.total))
      in
      hits_mattson = Oracle.Naive_lru.naive_hits stream ~size)

(* ---- chaining (Table 3.2) ---- *)

let test_chaining () =
  let l = Sexp.parse "(a b c)" and tail = Sexp.parse "(b c)" in
  let c =
    mk_capture
      [ prim E.Cdr [ l ] tail;
        prim E.Car [ tail ] (D.sym "b");  (* chained *)
        prim E.Car [ l ] (D.sym "a") ]    (* not chained *)
  in
  let r = Analysis.Chaining.analyze (Trace.Preprocess.run c) in
  Alcotest.(check int) "car total" 2 r.Analysis.Chaining.car_total;
  Alcotest.(check int) "car chained" 1 r.Analysis.Chaining.car_chained;
  Alcotest.(check (float 0.01)) "car pct" 50. (Analysis.Chaining.car_pct r);
  Alcotest.(check (float 0.01)) "cdr pct" 0. (Analysis.Chaining.cdr_pct r)

let test_chaining_synth_levels () =
  (* the synthetic generator's chain_prob should show up in the measured
     chaining percentage *)
  let measure chain_prob =
    let cap =
      Trace.Synth.generate { Trace.Synth.default with length = 4000; chain_prob }
    in
    Analysis.Chaining.all_pct (Analysis.Chaining.analyze (Trace.Preprocess.run cap))
  in
  let low = measure 0.05 and high = measure 0.7 in
  Alcotest.(check bool) "higher chain_prob, more chaining" true (high > low +. 20.)

let () =
  Alcotest.run "analysis"
    [ ("prim_mix", [ Alcotest.test_case "percentages" `Quick test_prim_mix ]);
      ("np_stats", [ Alcotest.test_case "means over distinct lists" `Quick test_np_stats ]);
      ("list_sets",
       [ Alcotest.test_case "two families" `Quick test_list_sets_two_families;
         Alcotest.test_case "separation constraint" `Quick test_list_sets_separation;
         Alcotest.test_case "lifetimes" `Quick test_list_sets_lifetime;
         Alcotest.test_case "coverage curve" `Quick test_coverage_curve;
         Alcotest.test_case "set id stream" `Quick test_set_id_stream ]);
      ("fenwick",
       [ Alcotest.test_case "point adds and prefix sums" `Quick test_fenwick_basic;
         QCheck_alcotest.to_alcotest prop_fenwick_prefix_sums ]);
      ("lru",
       [ Alcotest.test_case "distances" `Quick test_lru_basic;
         QCheck_alcotest.to_alcotest prop_fenwick_equals_mtf;
         QCheck_alcotest.to_alcotest prop_mattson_equals_naive ]);
      ("chaining",
       [ Alcotest.test_case "flags aggregated" `Quick test_chaining;
         Alcotest.test_case "responds to chain_prob" `Quick test_chaining_synth_levels ]) ]
