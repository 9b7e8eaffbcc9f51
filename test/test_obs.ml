(* Tests for the observability layer: histogram properties under qcheck
   (conservation, monotone CDF, quantile bounds, merge commutativity),
   multi-domain counter/histogram stress (no lost increments), golden
   Prometheus exposition and JSON snapshot shapes, the extended (stats)
   response, and the regression that attaching a registry never changes
   simulation results. *)

module H = Obs.Metric.Histogram

let bounds_small = [| 0.1; 1.; 10. |]

let snapshot_of values =
  let h = H.create ~bounds:bounds_small () in
  List.iter (H.record h) values;
  H.snapshot h

(* ---- qcheck histogram properties ---- *)

let values_gen = QCheck.list_of_size (QCheck.Gen.int_range 0 200) (QCheck.float_range (-5.) 50.)

let prop_conservation =
  QCheck.Test.make ~count:200 ~name:"recorded count is conserved" values_gen
    (fun values ->
       let s = snapshot_of values in
       H.count s = List.length values)

let prop_monotone_cdf =
  QCheck.Test.make ~count:200 ~name:"cumulative counts are non-decreasing" values_gen
    (fun values ->
       let cum = H.cumulative (snapshot_of values) in
       let ok = ref true in
       Array.iteri (fun i c -> if i > 0 && c < cum.(i - 1) then ok := false) cum;
       !ok && (Array.length cum = 0 || cum.(Array.length cum - 1) = List.length values))

(* Recompute the rank's bucket independently and check the interpolated
   estimate never leaves it (the overflow bucket pins to its lower
   bound). *)
let quantile_in_bucket s q =
  let total = H.count s in
  if total = 0 then H.quantile s q = 0.
  else begin
    let est = H.quantile s q in
    let rank =
      Stdlib.max 1 (Stdlib.min total (int_of_float (ceil (q *. float_of_int total))))
    in
    let cum = H.cumulative s in
    let rec bucket i = if cum.(i) >= rank then i else bucket (i + 1) in
    let i = bucket 0 in
    let nb = Array.length s.H.sbounds in
    let lower = if i = 0 then 0. else s.H.sbounds.(i - 1) in
    if i >= nb then est = lower else est >= lower && est <= s.H.sbounds.(i)
  end

let prop_quantile_bounds =
  QCheck.Test.make ~count:200 ~name:"quantile stays inside its bucket"
    (QCheck.pair values_gen (QCheck.float_range (-0.5) 1.5))
    (fun (values, q) -> quantile_in_bucket (snapshot_of values) q)

let prop_merge_commutes =
  QCheck.Test.make ~count:200 ~name:"merge is commutative"
    (QCheck.pair values_gen values_gen)
    (fun (a, b) ->
       let sa = snapshot_of a and sb = snapshot_of b in
       H.merge sa sb = H.merge sb sa)

let prop_merge_is_union =
  QCheck.Test.make ~count:200 ~name:"merge equals recording the union"
    (QCheck.pair values_gen values_gen)
    (fun (a, b) ->
       let m = H.merge (snapshot_of a) (snapshot_of b) in
       let u = snapshot_of (a @ b) in
       m.H.scounts = u.H.scounts && H.count m = H.count u)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_conservation; prop_monotone_cdf; prop_quantile_bounds;
      prop_merge_commutes; prop_merge_is_union ]

(* ---- multi-domain stress: no lost increments ---- *)

let test_counter_stress () =
  let c = Obs.Metric.Counter.create () in
  let per_domain = 50_000 and domains = 4 in
  let spawn () =
    Domain.spawn (fun () ->
        for _ = 1 to per_domain do
          Obs.Metric.Counter.incr c
        done)
  in
  List.iter Domain.join (List.init domains (fun _ -> spawn ()));
  Alcotest.(check int) "every increment lands" (domains * per_domain)
    (Obs.Metric.Counter.get c)

let test_histogram_stress () =
  let h = H.create ~bounds:bounds_small () in
  let per_domain = 20_000 and domains = 4 in
  (* each domain records a different constant, so per-bucket counts and
     the sum are both exactly checkable *)
  let values = [| 0.05; 0.5; 5.0; 50.0 |] in
  let spawn i =
    Domain.spawn (fun () ->
        for _ = 1 to per_domain do
          H.record h values.(i)
        done)
  in
  List.iter Domain.join (List.init domains spawn);
  let s = H.snapshot h in
  Alcotest.(check int) "no lost records" (domains * per_domain) (H.count s);
  Array.iter (Alcotest.(check int) "one domain per bucket" per_domain) s.H.scounts;
  let expected_sum =
    float_of_int per_domain *. Array.fold_left ( +. ) 0. values
  in
  Alcotest.(check (float 1e-6)) "no lost sum" expected_sum s.H.ssum

let test_gauge_set_max_stress () =
  let g = Obs.Metric.Gauge.create () in
  let spawn lo =
    Domain.spawn (fun () ->
        for v = lo to lo + 10_000 do
          Obs.Metric.Gauge.set_max g v
        done)
  in
  List.iter Domain.join (List.map spawn [ 0; 5_000; 90_000; 40_000 ]);
  Alcotest.(check int) "highest value wins" 100_000 (Obs.Metric.Gauge.get g)

let test_local_accumulator () =
  let direct = H.create ~bounds:bounds_small () in
  let batched = H.create ~bounds:bounds_small () in
  let l = H.Local.create batched in
  let values = [ 0.05; 0.05; 0.3; 5.; 5.; 5.; 100.; 0.3 ] in
  List.iter (fun v -> H.record direct v; H.Local.record l v) values;
  Alcotest.(check int) "nothing published before flush" 0 (H.count (H.snapshot batched));
  H.Local.flush l;
  let ds = H.snapshot direct and bs = H.snapshot batched in
  Alcotest.(check bool) "flush equals direct recording" true
    (ds.H.scounts = bs.H.scounts && Float.abs (ds.H.ssum -. bs.H.ssum) < 1e-9);
  H.Local.flush l;
  Alcotest.(check int) "second flush publishes nothing" (List.length values)
    (H.count (H.snapshot batched))

(* ---- registry semantics ---- *)

let test_registry_get_or_create () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg ~help:"first" "reg_demo_total" in
  let b = Obs.Registry.counter reg ~help:"ignored later" "reg_demo_total" in
  Obs.Metric.Counter.incr a;
  Obs.Metric.Counter.incr b;
  Alcotest.(check int) "same handle" 2 (Obs.Metric.Counter.get a);
  (match Obs.Registry.snapshot reg with
   | [ s ] ->
     Alcotest.(check string) "help from first registration" "first" s.Obs.Registry.help
   | _ -> Alcotest.fail "one sample expected");
  (* same name, different kind: refused *)
  (match Obs.Registry.gauge reg "reg_demo_total" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "kind mismatch must be invalid_arg");
  (match Obs.Registry.counter reg "not a name" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "invalid names must be refused")

(* ---- golden exposition / JSON ---- *)

let golden_registry () =
  let reg = Obs.Registry.create () in
  Obs.Metric.Counter.add (Obs.Registry.counter reg ~help:"requests served" "demo_requests_total") 3;
  Obs.Metric.Gauge.set (Obs.Registry.gauge reg ~help:"jobs waiting" "demo_queue_depth") 2;
  let jobs outcome =
    Obs.Registry.counter reg ~help:"jobs by outcome"
      ~labels:[ ("outcome", outcome) ] "demo_jobs_total"
  in
  Obs.Metric.Counter.add (jobs "done") 1;
  Obs.Metric.Counter.add (jobs "failed") 2;
  let h =
    Obs.Registry.histogram reg ~help:"latency" ~bounds:bounds_small
      "demo_latency_seconds"
  in
  H.record h 0.05;
  H.record h 5.0;
  reg

let test_golden_exposition () =
  let expected =
    String.concat "\n"
      [ "# HELP demo_jobs_total jobs by outcome";
        "# TYPE demo_jobs_total counter";
        "demo_jobs_total{outcome=\"done\"} 1";
        "demo_jobs_total{outcome=\"failed\"} 2";
        "# HELP demo_latency_seconds latency";
        "# TYPE demo_latency_seconds histogram";
        "demo_latency_seconds_bucket{le=\"0.1\"} 1";
        "demo_latency_seconds_bucket{le=\"1\"} 1";
        "demo_latency_seconds_bucket{le=\"10\"} 2";
        "demo_latency_seconds_bucket{le=\"+Inf\"} 2";
        "demo_latency_seconds_sum 5.05";
        "demo_latency_seconds_count 2";
        "# HELP demo_queue_depth jobs waiting";
        "# TYPE demo_queue_depth gauge";
        "demo_queue_depth 2";
        "# HELP demo_requests_total requests served";
        "# TYPE demo_requests_total counter";
        "demo_requests_total 3";
        "" ]
  in
  Alcotest.(check string) "exposition text is pinned" expected
    (Obs.Expo.of_registry (golden_registry ()))

let test_exposition_escaping () =
  let reg = Obs.Registry.create () in
  Obs.Metric.Counter.incr
    (Obs.Registry.counter reg ~help:"line one\nback\\slash"
       ~labels:[ ("path", "a\"b\\c\nd") ] "esc_total");
  let expected =
    "# HELP esc_total line one\\nback\\\\slash\n"
    ^ "# TYPE esc_total counter\n"
    ^ "esc_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"
  in
  Alcotest.(check string) "help and label values escaped" expected
    (Obs.Expo.of_registry reg)

let test_golden_json () =
  let module J = Server.Json in
  let reg = Obs.Registry.create () in
  (* representable floats only, so the emitted text is exact *)
  let h =
    Obs.Registry.histogram reg ~help:"latency" ~bounds:[| 0.5; 1.; 2. |]
      "demo_latency_seconds"
  in
  H.record h 0.5;
  H.record h 2.0;
  Obs.Metric.Counter.add (Obs.Registry.counter reg ~help:"requests" "demo_requests_total") 3;
  let expected =
    J.Obj
      [ ("demo_latency_seconds",
         J.Obj
           [ ("type", J.Str "histogram");
             ("help", J.Str "latency");
             ("samples",
              J.List
                [ J.Obj
                    [ ("labels", J.Obj []);
                      ("value",
                       J.Obj
                         [ ("count", J.Int 2);
                           ("sum", J.Float 2.5);
                           ("p50", J.Float 0.5);
                           ("p99", J.Float 2.);
                           ("buckets",
                            J.List
                              [ J.Obj [ ("le", J.Float 0.5); ("count", J.Int 1) ];
                                J.Obj [ ("le", J.Float 1.); ("count", J.Int 0) ];
                                J.Obj [ ("le", J.Float 2.); ("count", J.Int 1) ];
                                J.Obj [ ("le", J.Str "+Inf"); ("count", J.Int 0) ] ]) ]) ] ]) ]);
        ("demo_requests_total",
         J.Obj
           [ ("type", J.Str "counter");
             ("help", J.Str "requests");
             ("samples",
              J.List [ J.Obj [ ("labels", J.Obj []); ("value", J.Int 3) ] ]) ]) ]
  in
  Alcotest.(check string) "snapshot json is pinned" (J.to_string expected)
    (J.to_string (Server.Obs_json.registry_json reg))

(* ---- the extended (stats) response ---- *)

let test_stats_shape () =
  let svc = Server.Service.create ~workers:1 ~queue_capacity:4 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let module J = Server.Json in
  match Server.Service.stats_json svc with
  | J.Obj fields ->
    Alcotest.(check (list string)) "top-level keys"
      [ "status"; "jobs_executed"; "cache"; "scheduler"; "metrics" ]
      (List.map fst fields);
    (match List.assoc "metrics" fields with
     | J.Obj families ->
       Alcotest.(check (list string)) "registered families on a fresh service"
         [ "small_cache_degraded";
           "small_cache_disk_bytes_total";
           "small_cache_disk_hits_total"; "small_cache_hits_total";
           "small_cache_misses_total"; "small_cache_stores_total";
           "small_cache_write_errors_total"; "small_jobs_retried_total";
           "small_sched_inflight"; "small_sched_jobs_total";
           "small_sched_queue_depth"; "small_sched_queue_wait_seconds";
           "small_sched_run_seconds"; "small_svc_cancel_requests_total";
           "small_svc_request_seconds"; "small_svc_requests_total" ]
         (List.map fst families)
     | _ -> Alcotest.fail "metrics must be an object")
  | _ -> Alcotest.fail "(stats) must be an object"

(* ---- determinism: a registry never changes simulation results ---- *)

let synth_pre =
  lazy
    (Trace.Preprocess.run
       (Trace.Synth.generate { Trace.Synth.default with length = 3000 }))

let sim_bytes stats =
  Sexp.to_string (Server.Exec.output_to_sexp (Server.Exec.Simulate_out stats))

let test_run_determinism () =
  let pre = Lazy.force synth_pre in
  let cfg = { Core.Simulator.default_config with table_size = 64 } in
  let bare = Core.Simulator.run cfg pre in
  let reg = Obs.Registry.create () in
  let instrumented = Core.Simulator.run ~metrics:reg cfg pre in
  Alcotest.(check string) "stats byte-identical with a registry attached"
    (sim_bytes bare) (sim_bytes instrumented);
  Alcotest.(check string) "cache key unchanged"
    (Core.Simulator.config_digest cfg) (Core.Simulator.config_digest cfg);
  (* and the registry really saw the run *)
  let events =
    List.find_map
      (fun (s : Obs.Registry.sample) ->
         match s.value with
         | Obs.Registry.Counter_v v when s.name = "small_sim_events_total" -> Some v
         | _ -> None)
      (Obs.Registry.snapshot reg)
  in
  Alcotest.(check (option int)) "events counted" (Some bare.Core.Simulator.events)
    events

let test_knee_determinism () =
  let pre = Lazy.force synth_pre in
  let cfg = { Core.Simulator.default_config with table_size = 16 } in
  let k_seq, s_seq = Core.Simulator.min_table_size ~jobs:1 cfg (Core.Simulator.pack pre) in
  let reg = Obs.Registry.create () in
  (* several domains share one registry while probing: the search result
     must not care *)
  let k_par, s_par =
    Core.Simulator.min_table_size ~jobs:4 ~metrics:reg cfg (Core.Simulator.pack pre)
  in
  Alcotest.(check int) "same knee across jobs and registries" k_seq k_par;
  Alcotest.(check string) "same stats" (sim_bytes s_seq) (sim_bytes s_par)

(* ---- spans ---- *)

let test_span_monotone () =
  let prev = ref 0. in
  for _ = 1 to 10_000 do
    let t = Obs.Span.now () in
    if t < !prev then Alcotest.fail "Span.now went backwards";
    prev := t
  done;
  let s = Obs.Span.start () in
  Alcotest.(check bool) "elapsed is non-negative" true (Obs.Span.elapsed s >= 0.);
  let h = H.create () in
  let v = Obs.Span.time h (fun () -> 42) in
  Alcotest.(check int) "time passes the result through" 42 v;
  Alcotest.(check int) "time records once" 1 (H.count (H.snapshot h))

(* ---- a metrics file on a full disk ----

   Under a file-size limit of zero every write fails (EFBIG, with
   SIGXFSZ ignored): the exposition cannot be flushed when the file is
   closed, and a text longer than the channel's buffer cannot even be
   written.  [write_file] must swallow both and leave no temp file.  The
   limit is set by [ulimit] in a child process, which runs this
   executable in the mode below. *)

let full_disk_env = "OBS_EXPO_FULL_DISK_DIR"

let full_disk_child dir =
  Sys.set_signal Sys.sigxfsz Sys.Signal_ignore;
  let reg = Obs.Registry.create () in
  let write () =
    match Obs.Expo.write_file reg (Filename.concat dir "metrics.prom") with
    | () -> ()
    | exception _ -> exit 3
  in
  Obs.Metric.Counter.incr (Obs.Registry.counter reg ~help:"small" "small_total");
  write ();                                   (* fails at the close *)
  for i = 1 to 2000 do
    Obs.Metric.Counter.incr
      (Obs.Registry.counter reg ~help:"wide" ~labels:[ ("i", string_of_int i) ] "wide_total")
  done;
  write ();                                   (* fails at the write *)
  exit (if Array.length (Sys.readdir dir) = 0 then 0 else 4)

let () = Option.iter full_disk_child (Sys.getenv_opt full_disk_env)

let test_write_file_full_disk () =
  let dir = Filename.temp_file "expo" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let env = Array.append [| full_disk_env ^ "=" ^ dir |] (Unix.environment ()) in
  (* the child's output goes where the limit does not apply *)
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    Unix.create_process_env "/bin/sh"
      [| "sh"; "-c"; "trap '' XFSZ; ulimit -f 0 && exec \"$0\""; Sys.executable_name |]
      env Unix.stdin null null
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED 3 -> Alcotest.fail "an exception escaped write_file"
  | _, Unix.WEXITED 4 -> Alcotest.fail "a temp file was left behind"
  | _, Unix.WEXITED n -> Alcotest.failf "the full-disk child exited %d" n
  | _ -> Alcotest.fail "the full-disk child was killed"

let () =
  Alcotest.run "obs"
    [ ("histogram properties", qcheck_cases);
      ("concurrency",
       [ Alcotest.test_case "counter stress" `Quick test_counter_stress;
         Alcotest.test_case "histogram stress" `Quick test_histogram_stress;
         Alcotest.test_case "gauge set_max stress" `Quick test_gauge_set_max_stress;
         Alcotest.test_case "local accumulator" `Quick test_local_accumulator ]);
      ("registry",
       [ Alcotest.test_case "get or create" `Quick test_registry_get_or_create ]);
      ("golden",
       [ Alcotest.test_case "prometheus exposition" `Quick test_golden_exposition;
         Alcotest.test_case "exposition escaping" `Quick test_exposition_escaping;
         Alcotest.test_case "json snapshot" `Quick test_golden_json;
         Alcotest.test_case "(stats) shape" `Quick test_stats_shape ]);
      ("determinism",
       [ Alcotest.test_case "run with/without registry" `Quick test_run_determinism;
         Alcotest.test_case "knee across jobs" `Quick test_knee_determinism ]);
      ("span", [ Alcotest.test_case "monotone clock" `Quick test_span_monotone ]);
      ("exposition file",
       [ Alcotest.test_case "full disk: nothing escapes, no temp file" `Quick
           test_write_file_full_disk ]) ]
