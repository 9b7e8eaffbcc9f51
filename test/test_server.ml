(* Tests for the job service: the service core's scheduling policy
   (ordering, backpressure, timeouts, cancellation) and its seeded
   simulation battery, single-flight, the content-addressed result cache
   (memory and disk), job parsing and digesting, and the end-to-end
   guarantee that served results are identical to direct
   Core.Simulator runs. *)

module SC = Server.Service_core
module D = Sexp.Datum

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "unexpected submit error"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* ---- result cache ---- *)

let test_cache_memory_accounting () =
  let c = Server.Result_cache.create () in
  let k = Server.Result_cache.key ~trace_digest:"t" ~job_digest:"j" in
  Alcotest.(check (option string)) "miss" None (Server.Result_cache.find c k);
  Server.Result_cache.store c k "value";
  Alcotest.(check (option string)) "hit" (Some "value") (Server.Result_cache.find c k);
  let st = Server.Result_cache.stats c in
  Alcotest.(check int) "hits" 1 st.Server.Result_cache.hits;
  Alcotest.(check int) "misses" 1 st.Server.Result_cache.misses;
  Alcotest.(check int) "stores" 1 st.Server.Result_cache.stores;
  Alcotest.(check int) "no disk" 0 st.Server.Result_cache.disk_hits

let test_cache_disk_persistence () =
  let dir = temp_dir "rescache" in
  let k = Server.Result_cache.key ~trace_digest:"td" ~job_digest:"jd" in
  let c1 = Server.Result_cache.create ~store_dir:dir () in
  Server.Result_cache.store c1 k "persisted";
  (* a fresh instance over the same directory must find it on disk *)
  let c2 = Server.Result_cache.create ~store_dir:dir () in
  Alcotest.(check (option string)) "disk hit" (Some "persisted")
    (Server.Result_cache.find c2 k);
  let st = Server.Result_cache.stats c2 in
  Alcotest.(check int) "counted as disk hit" 1 st.Server.Result_cache.disk_hits;
  (* and the second lookup is served from memory *)
  ignore (Server.Result_cache.find c2 k);
  let st = Server.Result_cache.stats c2 in
  Alcotest.(check int) "second hit from memory" 1 st.Server.Result_cache.disk_hits;
  Alcotest.(check int) "both hits counted" 2 st.Server.Result_cache.hits

let test_cache_metrics () =
  let reg = Obs.Registry.create () in
  let dir = temp_dir "rescache-metrics" in
  let c = Server.Result_cache.create ~metrics:reg ~store_dir:dir () in
  let k = Server.Result_cache.key ~trace_digest:"t" ~job_digest:"j" in
  ignore (Server.Result_cache.find c k : string option);
  Server.Result_cache.store c k "0123456789";
  ignore (Server.Result_cache.find c k : string option);
  let counter name =
    Obs.Metric.Counter.get (Obs.Registry.counter reg name)
  in
  Alcotest.(check int) "miss counted" 1 (counter "small_cache_misses_total");
  Alcotest.(check int) "store counted" 1 (counter "small_cache_stores_total");
  Alcotest.(check int) "hit counted" 1 (counter "small_cache_hits_total");
  (* the log store frames and checksums the value itself: the cache
     counts the value bytes it handed over *)
  Alcotest.(check int) "bytes written to disk" 10
    (counter "small_cache_disk_bytes_total");
  (* a fresh instance over the same directory counts the disk hit *)
  let reg2 = Obs.Registry.create () in
  let c2 = Server.Result_cache.create ~metrics:reg2 ~store_dir:dir () in
  ignore (Server.Result_cache.find c2 k : string option);
  let counter2 name =
    Obs.Metric.Counter.get (Obs.Registry.counter reg2 name)
  in
  Alcotest.(check int) "disk hit counted" 1 (counter2 "small_cache_disk_hits_total");
  Alcotest.(check int) "disk hit is a hit" 1 (counter2 "small_cache_hits_total")

let test_cache_key_shape () =
  let k1 = Server.Result_cache.key ~trace_digest:"a" ~job_digest:"b" in
  let k2 = Server.Result_cache.key ~trace_digest:"a" ~job_digest:"c" in
  Alcotest.(check int) "md5 hex" 32 (String.length k1);
  Alcotest.(check bool) "job digest matters" true (k1 <> k2)

(* ---- jobs ---- *)

let test_job_parse () =
  let job =
    match
      Server.Job.parse
        "(simulate (workload slang) (size 512) (policy all) (seed 3) (timeout 5))"
    with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  (match job.Server.Job.source with
   | Server.Job.Workload w -> Alcotest.(check string) "source" "slang" w
   | _ -> Alcotest.fail "expected workload source");
  (match job.Server.Job.spec with
   | Server.Job.Simulate cfg ->
     Alcotest.(check int) "size" 512 cfg.Core.Simulator.table_size;
     Alcotest.(check int) "seed" 3 cfg.Core.Simulator.seed;
     Alcotest.(check bool) "policy" true
       (cfg.Core.Simulator.policy = Core.Lpt.Compress_all)
   | _ -> Alcotest.fail "expected simulate spec");
  Alcotest.(check (option (float 1e-9))) "timeout" (Some 5.) job.Server.Job.timeout

let test_job_sexp_roundtrip () =
  List.iter
    (fun line ->
       let job = Result.get_ok (Server.Job.parse line) in
       let again =
         match Server.Job.of_sexp (Server.Job.to_sexp job) with
         | Ok j -> j
         | Error msg -> Alcotest.fail ("re-parse failed: " ^ msg)
       in
       Alcotest.(check string) ("digest stable: " ^ line) (Server.Job.digest job)
         (Server.Job.digest again);
       Alcotest.(check string) ("describe stable: " ^ line)
         (Server.Job.describe job) (Server.Job.describe again))
    [ "(stats (workload plagen))";
      "(analyze (workload slang) (separation 0.25))";
      "(simulate (workload editor) (size 256) (seed 9) (cache 128 4) (split-counts))";
      "(knee (workload lyra) (seed 7) (eager-decrement))" ]

let test_job_errors () =
  (match Server.Job.parse "(simulate (workload nosuch))" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown workload must be rejected");
  (match Server.Job.parse "(simulate (size 64))" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing source must be rejected");
  (match Server.Job.parse "(simulate (workload slang) (frobnicate 1))" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown clause must be rejected")

let test_job_digest_semantics () =
  let j line = Result.get_ok (Server.Job.parse line) in
  let base = j "(simulate (workload slang) (size 512))" in
  Alcotest.(check string) "timeout is not part of the measurement"
    (Server.Job.digest base)
    (Server.Job.digest (j "(simulate (workload slang) (size 512) (timeout 9))"));
  Alcotest.(check string) "source is not part of the job half"
    (Server.Job.digest base)
    (Server.Job.digest (j "(simulate (workload editor) (size 512))"));
  Alcotest.(check bool) "config is" true
    (Server.Job.digest base <> Server.Job.digest (j "(simulate (workload slang) (size 256))"))

(* ---- exec output codec ---- *)

let synth_capture = lazy (Trace.Synth.generate { Trace.Synth.default with length = 3000 })

let test_output_sexp_roundtrip () =
  let pre = Trace.Preprocess.run (Lazy.force synth_capture) in
  let stats =
    Core.Simulator.run { Core.Simulator.default_config with table_size = 64 } pre
  in
  List.iter
    (fun out ->
       match Server.Exec.output_of_sexp (Server.Exec.output_to_sexp out) with
       | Ok back -> Alcotest.(check bool) "lossless round-trip" true (out = back)
       | Error msg -> Alcotest.fail ("decode failed: " ^ msg))
    [ Server.Exec.Simulate_out stats;
      Server.Exec.Knee_out { size = 96; stats } ]

(* ---- service end-to-end ---- *)

let with_service ?store_dir f =
  let svc = Server.Service.create ?store_dir ~workers:2 ~queue_capacity:32 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) (fun () -> f svc)

let saved_synth_trace = lazy (
  let path = Filename.temp_file "synth" ".smtb" in
  Trace.Io.save ~format:Trace.Io.Binary path (Lazy.force synth_capture);
  path)

(* The same capture in the text format: a sexp-lines file is
   preprocessed from its capture by [Preprocess.run], the oracle every
   binary-file path must match. *)
let saved_synth_sexp = lazy (
  let path = Filename.temp_file "synth" ".trace" in
  Trace.Io.save ~format:Trace.Io.Sexp_lines path (Lazy.force synth_capture);
  path)

let sim_config seed = { Core.Simulator.default_config with table_size = 64; seed }

let file_job path spec =
  { Server.Job.source = Server.Job.Trace_file path; spec;
    timeout = None; priority = 0; deadline = None; wire_id = None }

let sim_job seed =
  file_job (Lazy.force saved_synth_trace) (Server.Job.Simulate (sim_config seed))

(* A primitive wider than the packed kernel's 24 position bits: stats
   reads it, simulate refuses it with a typed job error. *)
let wide_capture () =
  let l i = D.list [ D.int i; D.int (i + 1) ] in
  let wide = List.init 25 (fun i -> if i mod 2 = 0 then D.int i else l i) in
  let c = Trace.Capture.create () in
  List.iter (Trace.Capture.record c)
    [ Trace.Event.Call { name = "f"; nargs = 1 };
      Trace.Event.Prim { prim = Trace.Event.Cons; args = [ D.int 0; l 1 ]; result = l 0 };
      Trace.Event.Prim { prim = Trace.Event.Car; args = wide; result = D.int 1 };
      Trace.Event.Return { name = "f" } ];
  c

let wide_trace = lazy (
  let path = Filename.temp_file "wide" ".smtb" in
  Trace.Io.save ~format:Trace.Io.Binary path (wide_capture ());
  path)

(* ---- the service core, driven alone ---- *)

(* Scheduler policy — FIFO order, backpressure, timeouts, cancellation,
   failure capture — is decided by [Service_core], so it is tested by
   stepping the core with a hand-run clock and worker: no domains, no
   sleeps.  Every job here has its own cache key and every lookup
   misses. *)

let core ?(workers = 1) ?(capacity = 16) ?(retries = 0) ?(backoff = 0.01) () =
  SC.create { SC.workers; capacity; retries; backoff; jitter_seed = None; shard_id = None }

let core_job ?timeout ?deadline ?(priority = 0) ?wire_id seed =
  { Server.Job.source = Server.Job.Workload "slang";
    spec = Server.Job.Simulate { Core.Simulator.default_config with seed };
    timeout; priority; deadline; wire_id }

(* A stand-in result: the run of job [n] yields [output_of n]. *)
let output_of n =
  Server.Exec.Stats_out
    { events = n; primitives = 0; functions = 0; max_depth = 0; distinct_lists = 0; mix = [] }

(* Steps [input], answering every cache lookup it asks for with a miss
   and every store at once. *)
let rec drive c ~now input =
  List.concat_map
    (function
      | SC.Lookup { waiter; _ } as a -> a :: drive c ~now (SC.Looked_up { waiter; stored = None; now })
      | SC.Store { key; _ } as a -> a :: drive c ~now (SC.Stored { key; now })
      | a -> [ a ])
    (SC.step c input)

let key_of n = Printf.sprintf "k%d" n

(* Job [n] arrives alone on session [n], under key [key_of n]. *)
let submit c ~now n job =
  drive c ~now
    (SC.Request
       { session = n; now;
         request = SC.Parts [ SC.Job (job, SC.Keyed { key = key_of n; expect = None }) ] })

let finish c ~now n f = drive c ~now (SC.Finished { key = key_of n; finish = f; now })
let runs acts = List.filter_map (function SC.Run { key; _ } -> Some key | _ -> None) acts
let stops acts = List.filter_map (function SC.Stop key -> Some key | _ -> None) acts

(* The reply the step wrote on session [n], if it wrote one. *)
let reply_of n acts =
  List.find_map
    (function SC.Write { session; replies = [ r ]; _ } when session = n -> Some r | _ -> None)
    acts

let answer_of n acts =
  match reply_of n acts with Some (Ok r) -> Some r.SC.outcome | Some (Error _) | None -> None

let refused n acts = match reply_of n acts with Some (Error _) -> true | _ -> false

let test_fifo_order () =
  let c = core () in
  let acts = List.concat_map (fun i -> submit c ~now:0. i (core_job i)) [ 1; 2; 3; 4; 5 ] in
  (* one worker: each finish starts the next run *)
  let rec go acts order =
    match runs acts with
    | [] -> List.rev order
    | [ key ] ->
      let n = int_of_string (String.sub key 1 (String.length key - 1)) in
      let acts = finish c ~now:0. n (SC.Done (output_of n)) in
      (match answer_of n acts with
       | Some (Ok out) -> Alcotest.(check bool) "result" true (out = output_of n)
       | _ -> Alcotest.fail "job did not complete");
      go acts (n :: order)
    | _ -> Alcotest.fail "one worker ran two jobs at once"
  in
  Alcotest.(check (list int)) "single worker runs FIFO" [ 1; 2; 3; 4; 5 ] (go acts [])

let test_backpressure () =
  let c = core ~capacity:1 () in
  Alcotest.(check (list string)) "the first job runs" [ "k1" ] (runs (submit c ~now:0. 1 (core_job 1)));
  Alcotest.(check (list string)) "the second waits" [] (runs (submit c ~now:0. 2 (core_job 2)));
  Alcotest.(check bool) "expected Queue_full" true (refused 3 (submit c ~now:0. 3 (core_job 3)));
  Alcotest.(check int) "rejection counted" 1 (SC.stats c).SC.rejected;
  let a1 = finish c ~now:0.1 1 (SC.Done (output_of 1)) in
  let a2 = finish c ~now:0.2 2 (SC.Done (output_of 2)) in
  match answer_of 1 a1, runs a1, answer_of 2 a2 with
  | Some (Ok _), [ "k2" ], Some (Ok _) -> ()
  | _ -> Alcotest.fail "queued jobs must still run"

(* A full queue that sheds a lower-priority run to admit a higher one
   refuses nothing: only the run that finds nothing to shed counts as
   rejected. *)
let test_shed_is_not_a_rejection () =
  let c = core ~capacity:1 () in
  ignore (submit c ~now:0. 1 (core_job 1));
  ignore (submit c ~now:0. 2 (core_job 2));
  let a3 = submit c ~now:0. 3 (core_job ~priority:1 3) in
  Alcotest.(check bool) "the queued run is shed" true (answer_of 2 a3 = Some (Error SC.Shed));
  Alcotest.(check bool) "the urgent run is admitted" false (refused 3 a3);
  Alcotest.(check bool) "the next is refused" true (refused 4 (submit c ~now:0. 4 (core_job 4)));
  let s = SC.stats c in
  Alcotest.(check (pair int int)) "rejected, shed" (1, 1) (s.SC.rejected, s.SC.shed)

let test_timeout () =
  let c = core () in
  (* a polling job is told to stop at its deadline, and answers when it does *)
  ignore (submit c ~now:0. 1 (core_job ~timeout:0.05 1));
  let tick = SC.step c (SC.Tick 0.06) in
  Alcotest.(check (list string)) "the overdue run is stopped" [ "k1" ] (stops tick);
  (match answer_of 1 (finish c ~now:0.061 1 SC.Stopped) with
   | Some (Error SC.Timed_out) -> ()
   | _ -> Alcotest.fail "polling job must time out");
  (* a non-polling job is classified at completion, result discarded *)
  ignore (submit c ~now:1. 2 (core_job ~timeout:0.01 2));
  let acts = finish c ~now:1.05 2 (SC.Done (output_of 2)) in
  (match answer_of 2 acts with
   | Some (Error SC.Timed_out) -> ()
   | _ -> Alcotest.fail "overdue job must be classified Timed_out");
  Alcotest.(check bool) "its result is not stored" false
    (List.exists (function SC.Store _ -> true | _ -> false) acts);
  Alcotest.(check int) "timeouts counted" 2 (SC.stats c).SC.timed_out

let test_cancel () =
  let c = core () in
  ignore (submit c ~now:0. 1 (core_job ~wire_id:1 1));
  ignore (submit c ~now:0. 2 (core_job ~wire_id:2 2));
  let acts = SC.step c (SC.Cancel { id = 2; now = 0.01 }) in
  Alcotest.(check bool) "pending job cancels immediately" true
    (answer_of 2 acts = Some (Error SC.Cancelled));
  let acts = SC.step c (SC.Cancel { id = 1; now = 0.02 }) in
  Alcotest.(check bool) "running job only gets the flag" true
    (stops acts = [ "k1" ] && answer_of 1 acts = None);
  let acts = finish c ~now:0.03 1 SC.Stopped in
  Alcotest.(check bool) "polling job must observe cancellation" true
    (answer_of 1 acts = Some (Error SC.Cancelled));
  Alcotest.(check (list string)) "the cancelled pending job never runs" [] (runs acts)

let test_failure_capture () =
  let c = core () in
  ignore (submit c ~now:0. 1 (core_job 1));
  match answer_of 1 (finish c ~now:0.01 1 (SC.Raised "Failure(\"boom\")")) with
  | Some (Error (SC.Exec_failed msg)) ->
    Alcotest.(check bool) "exception text captured" true (contains msg "boom")
  | _ -> Alcotest.fail "raising job must be Failed"

(* The first [n] draws a fault plan makes at ["sched.job"] under [cfg]. *)
let job_draws cfg n =
  let p = Fault.Plan.create cfg in
  List.init n (fun _ -> Fault.Plan.on_job p ~site:"sched.job")

(* A crash-only plan whose first draws at ["sched.job"] are [pattern]. *)
let crash_plan pattern =
  let cfg seed = { Fault.Plan.default with seed; crash = 0.5 } in
  let seed =
    List.find (fun seed -> job_draws (cfg seed) (List.length pattern) = pattern)
      (List.init 1000 Fun.id)
  in
  Fault.Plan.create (cfg seed)

(* A thunk that raises must settle its job as Failed, restore the
   in-flight accounting, and leave the worker alive for the next job. *)
let test_failure_keeps_pool_usable () =
  let c = core () in
  ignore (submit c ~now:0. 1 (core_job 1));
  ignore (submit c ~now:0. 2 (core_job 2));
  let acts = finish c ~now:0.01 1 (SC.Raised "die") in
  Alcotest.(check bool) "raising job must be Failed" true
    (match answer_of 1 acts with Some (Error (SC.Exec_failed _)) -> true | _ -> false);
  Alcotest.(check (list string)) "the worker takes the next job" [ "k2" ] (runs acts);
  ignore (finish c ~now:0.02 2 (SC.Done (output_of 2)));
  Alcotest.(check int) "running accounting restored" 0 (SC.stats c).SC.running;
  (* the same through a service, whose worker domain takes an injected
     crash and then a job that runs *)
  let fault = crash_plan [ Some Fault.Plan.Crash; None ] in
  let svc = Server.Service.create ~fault ~workers:1 ~queue_capacity:4 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let run seed =
    match Server.Service.run_job svc (sim_job seed) with
    | Ok r -> r.Server.Service.outcome
    | Error _ -> Alcotest.fail "unexpected submit error"
  in
  (match run 1 with
   | Error (Server.Service_core.Exec_failed _) -> ()
   | _ -> Alcotest.fail "raising job must be Failed");
  (match run 2 with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "the worker must survive a raising thunk");
  Alcotest.(check int) "running accounting restored" 0
    (Server.Service.scheduler_stats svc).SC.running;
  let gauge name = Obs.Metric.Gauge.get (Obs.Registry.gauge (Server.Service.metrics svc) name) in
  Alcotest.(check int) "in-flight gauge restored" 0 (gauge "small_sched_inflight");
  Alcotest.(check int) "queue-depth gauge empty" 0 (gauge "small_sched_queue_depth")

(* N jobs across mixed outcomes through one service: the per-outcome
   counters must sum to N and the gauges must settle back to zero.  Each
   outcome is forced without timing: a 25-argument primitive fails to
   simulate, a 1 ns timeout is overdue at completion, and a cancel is
   sent right behind its job while 45 others are ahead of it. *)
let test_scheduler_metrics_concurrent () =
  let svc = Server.Service.create ~workers:4 ~queue_capacity:128 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let reg = Server.Service.metrics svc in
  let wide = Lazy.force wide_trace in
  let joins =
    List.init 60 (fun i ->
        let job =
          match i mod 4 with
          | 0 -> sim_job (100 + i)
          | 1 -> file_job wide (Server.Job.Simulate (sim_config (100 + i)))
          | 2 -> { (sim_job (100 + i)) with timeout = Some 1e-9 }
          | _ -> { (sim_job (100 + i)) with wire_id = Some (1000 + i) }
        in
        ok (Server.Service.submit svc job))
  in
  List.iteri
    (fun i _ -> if i mod 4 = 3 then ignore (Server.Service.handle_line svc (Printf.sprintf "(cancel %d)" (1000 + i))))
    joins;
  List.iter (fun join -> ignore (join () : Server.Service.response)) joins;
  let counter labels =
    Obs.Metric.Counter.get
      (Obs.Registry.counter reg ~labels "small_sched_jobs_total")
  in
  let outcomes =
    List.map (fun o -> counter [ ("outcome", o) ])
      [ "done"; "failed"; "timed_out"; "cancelled" ]
  in
  Alcotest.(check int) "per-outcome counters sum to N" 60
    (List.fold_left ( + ) 0 outcomes);
  Alcotest.(check bool) "every class was exercised" true
    (List.for_all (fun c -> c > 0) outcomes);
  Alcotest.(check int) "rejected stays zero" 0
    (counter [ ("outcome", "rejected") ]);
  let gauge name = Obs.Metric.Gauge.get (Obs.Registry.gauge reg name) in
  Alcotest.(check int) "queue depth settled to zero" 0 (gauge "small_sched_queue_depth");
  Alcotest.(check int) "in-flight settled to zero" 0 (gauge "small_sched_inflight");
  (* wait/run histograms saw every job that reached a worker *)
  let hist_count name =
    match
      List.find_opt
        (fun (x : Obs.Registry.sample) -> x.Obs.Registry.name = name)
        (Obs.Registry.snapshot reg)
    with
    | Some { value = Obs.Registry.Histogram_v h; _ } ->
      Obs.Metric.Histogram.count h
    | _ -> Alcotest.fail (name ^ " not registered")
  in
  Alcotest.(check bool) "queue waits recorded" true
    (hist_count "small_sched_queue_wait_seconds" > 0);
  Alcotest.(check bool) "run times recorded" true
    (hist_count "small_sched_run_seconds" > 0)

let result_bytes (r : Server.Service.response) =
  match r.Server.Service.outcome with
  | Ok out -> Server.Json.to_string (Server.Exec.output_to_json out)
  | Error _ -> Alcotest.fail "job failed"

let direct_bytes seed =
  let pre = Trace.Preprocess.run (Lazy.force synth_capture) in
  Server.Json.to_string
    (Server.Exec.output_to_json
       (Server.Exec.Simulate_out (Core.Simulator.run (sim_config seed) pre)))

let test_service_matches_direct_runs () =
  with_service @@ fun svc ->
  let seeds = [ 1; 2; 3; 4 ] in
  (* submit the whole batch before awaiting: the jobs run concurrently *)
  let joins = List.map (fun seed -> ok (Server.Service.submit svc (sim_job seed))) seeds in
  List.iter2
    (fun seed join ->
       let r = join () in
       Alcotest.(check bool) "first runs are not cached" false r.Server.Service.cached;
       Alcotest.(check string)
         (Printf.sprintf "seed %d byte-identical to a direct run" seed)
         (direct_bytes seed) (result_bytes r))
    seeds joins;
  (* every job kind on the binary file (one scan of the mapped source)
     answers exactly as on the sexp-lines file (capture, then
     [Preprocess.run]) *)
  let answer path spec =
    result_bytes (ok (Server.Service.run_job svc (file_job path spec)))
  in
  List.iter
    (fun (kind, spec) ->
       Alcotest.(check string)
         (kind ^ ": binary file byte-identical to sexp-lines file")
         (answer (Lazy.force saved_synth_sexp) spec)
         (answer (Lazy.force saved_synth_trace) spec))
    [ ("stats", Server.Job.Stats);
      ("analyze", Server.Job.Analyze { separation = 0.25 });
      ("simulate", Server.Job.Simulate (sim_config 5));
      ("knee", Server.Job.Knee (sim_config 5)) ]

(* A primitive wider than the packed kernel's 24 position bits: stats
   never reads the position masks, so it answers on the binary file
   exactly as on the sexp-lines file; simulate still refuses the trace
   with a typed job error, not a crash. *)
let test_wide_primitive_stats () =
  let c = wide_capture () in
  let save format suffix =
    let path = Filename.temp_file "wide" suffix in
    Trace.Io.save ~format path c;
    path
  in
  let bin = save Trace.Io.Binary ".smtb" and sexp = save Trace.Io.Sexp_lines ".trace" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ bin; sexp ])
  @@ fun () ->
  with_service @@ fun svc ->
  let run path spec = ok (Server.Service.run_job svc (file_job path spec)) in
  Alcotest.(check string) "stats: binary file byte-identical to sexp-lines file"
    (result_bytes (run sexp Server.Job.Stats))
    (result_bytes (run bin Server.Job.Stats));
  match (run bin (Server.Job.Simulate (sim_config 1))).Server.Service.outcome with
  | Error (Server.Service_core.Exec_failed _) -> ()
  | Ok _ -> Alcotest.fail "simulate accepted a 25-argument primitive"
  | Error _ -> Alcotest.fail "simulate failed with an unexpected outcome"

(* A trace file rewritten while its job waits: the job fails with a
   source error and stores nothing, so once the old bytes are back they
   are answered by a fresh run — not by the rewritten bytes' result
   filed under the old bytes' key.  The wait is a fault-plan delay
   before the worker reads the file. *)
let test_rewrite_while_queued () =
  let path = Filename.temp_file "rewrite" ".smtb" in
  let save seed =
    Trace.Io.save ~format:Trace.Io.Binary path
      (Trace.Synth.generate { Trace.Synth.default with length = 2000; seed })
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  save 1;
  let job = file_job path (Server.Job.Simulate (sim_config 1)) in
  let fresh = with_service (fun svc -> result_bytes (ok (Server.Service.run_job svc job))) in
  let fault =
    Fault.Plan.create { Fault.Plan.default with delay = 1.0; delay_s = 0.3 }
  in
  let svc = Server.Service.create ~fault ~workers:1 ~queue_capacity:8 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let join = ok (Server.Service.submit svc job) in
  save 2;
  (match (join ()).Server.Service.outcome with
   | Error (Server.Service_core.Source_error _) -> ()
   | Ok _ -> Alcotest.fail "the job answered over rewritten bytes"
   | Error _ -> Alcotest.fail "the job failed, but not with a source error");
  save 1;
  let r = ok (Server.Service.run_job svc job) in
  Alcotest.(check bool) "restored bytes are not a cache hit" false r.Server.Service.cached;
  Alcotest.(check string) "restored bytes answer as a fresh service" fresh (result_bytes r)

let test_service_cache_hit () =
  let dir = temp_dir "svccache" in
  let first =
    with_service ~store_dir:dir @@ fun svc ->
    let r = ok (Server.Service.run_job svc (sim_job 1)) in
    Alcotest.(check bool) "cold run executes" false r.Server.Service.cached;
    result_bytes r
  in
  (* same job again: served from memory cache without re-simulation *)
  with_service ~store_dir:dir @@ fun svc ->
  let r1 = ok (Server.Service.run_job svc (sim_job 1)) in
  Alcotest.(check bool) "resubmission across processes hits disk" true
    r1.Server.Service.cached;
  Alcotest.(check string) "cached bytes identical" first (result_bytes r1);
  let st = Server.Result_cache.stats (Server.Service.cache svc) in
  Alcotest.(check int) "counted as a disk hit" 1 st.Server.Result_cache.disk_hits;
  let r2 = ok (Server.Service.run_job svc (sim_job 1)) in
  Alcotest.(check bool) "second resubmission hits memory" true r2.Server.Service.cached;
  Alcotest.(check int) "nothing was executed"
    0 (Server.Service.scheduler_stats svc).SC.completed

let test_handle_line () =
  with_service @@ fun svc ->
  (match Server.Service.handle_line svc "  " with
   | [] -> ()
   | _ -> Alcotest.fail "blank lines are ignored");
  (match Server.Service.handle_line svc "(not a job" with
   | [ line ] ->
     Alcotest.(check bool) "parse errors answered in-band" true
       (String.length line > 0 && String.sub line 0 1 = "{")
   | _ -> Alcotest.fail "one error line expected");
  (match Server.Service.handle_line svc "(stats)" with
   | [ line ] ->
     Alcotest.(check bool) "stats is a json object" true (String.sub line 0 1 = "{")
   | _ -> Alcotest.fail "one stats line expected");
  let path = Lazy.force saved_synth_trace in
  let batch =
    Printf.sprintf
      "(batch (simulate (trace-file \"%s\") (size 64) (seed 1)) (simulate (trace-file \"%s\") (size 64) (seed 2)))"
      path path
  in
  match Server.Service.handle_line svc batch with
  | [ a; b ] ->
    Alcotest.(check bool) "both ok" true
      (contains a "\"status\":\"ok\"" && contains b "\"status\":\"ok\"");
    Alcotest.(check bool) "request order kept" true
      (contains a "seed=1" && contains b "seed=2")
  | other ->
    Alcotest.fail (Printf.sprintf "expected 2 batch responses, got %d" (List.length other))

(* ---- wire framing and cluster hooks ---- *)

let test_ping_and_shard_field () =
  with_service @@ fun svc ->
  (match Server.Service.handle_line svc "(ping)" with
   | [ l ] ->
     Alcotest.(check bool) "pong" true (contains l "\"pong\":true");
     Alcotest.(check bool) "no shard field unless named" false
       (contains l "\"shard\":")
   | _ -> Alcotest.fail "one pong line expected");
  let shard = Server.Service.create ~shard_id:"s7" ~workers:1 ~queue_capacity:4 () in
  Fun.protect
    ~finally:(fun () -> Server.Service.shutdown shard)
    (fun () ->
       List.iter
         (fun req ->
            match Server.Service.handle_line shard req with
            | [ l ] ->
              Alcotest.(check bool)
                (req ^ " reply carries the shard id") true
                (contains l "\"shard\":\"s7\"")
            | _ -> Alcotest.fail "one reply line expected")
         [ "(ping)"; "(stats)"; "(not a job" ])

(* The wire protocol is newline-framed: a request arriving one byte per
   [write] (worst-case short writes, e.g. through a loaded socket) must
   produce byte-identical replies to the whole-line submission. *)
let strip_elapsed line =
  let marker = ",\"elapsed\":" in
  let mn = String.length marker in
  let rec find i =
    if i + mn > String.length line then line
    else if String.sub line i mn = marker then begin
      let j = ref (i + mn) in
      while !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      String.sub line 0 i ^ String.sub line !j (String.length line - !j)
    end
    else find (i + 1)
  in
  find 0

let test_framing_tiny_writes () =
  let path = Lazy.force saved_synth_trace in
  let requests =
    [ Printf.sprintf "(simulate (trace-file \"%s\") (size 64) (seed 31))" path;
      Printf.sprintf
        "(batch (simulate (trace-file \"%s\") (size 64) (seed 32)) (simulate (trace-file \"%s\") (size 64) (seed 33)))"
        path path;
      "(ping)" ]
  in
  let direct =
    with_service @@ fun svc ->
    List.concat_map (fun r -> Server.Service.handle_line svc r) requests
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let svc = Server.Service.create ~workers:2 ~queue_capacity:32 () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr b in
        let oc = Unix.out_channel_of_descr (Unix.dup b) in
        ignore (Server.Service.serve_channels svc ic oc);
        Server.Service.shutdown svc;
        (try close_out oc with Sys_error _ -> ());
        (try close_in ic with Sys_error _ -> ()))
  in
  let ic = Unix.in_channel_of_descr a in
  let write_byte_by_byte s =
    String.iter
      (fun ch ->
         let n = Unix.write a (Bytes.make 1 ch) 0 1 in
         Alcotest.(check int) "one byte written" 1 n)
      (s ^ "\n")
  in
  let replies =
    List.concat_map
      (fun req ->
         write_byte_by_byte req;
         (* a batch answers one line per element *)
         let expected = if contains req "(batch" then 2 else 1 in
         List.init expected (fun _ -> input_line ic))
      requests
  in
  write_byte_by_byte "(quit)";
  Domain.join server;
  (try close_in ic with Sys_error _ -> ());
  List.iter2
    (fun d r ->
       Alcotest.(check string) "tiny-write reply byte-identical"
         (strip_elapsed d) (strip_elapsed r))
    direct replies

(* One session served by its own domain over a socketpair; [f] gets the
   client's channels.  The client side times out rather than hang. *)
let with_session svc f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float a Unix.SO_RCVTIMEO 60.;
  Unix.setsockopt_float a Unix.SO_SNDTIMEO 60.;
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr b in
        let oc = Unix.out_channel_of_descr (Unix.dup b) in
        ignore (Server.Service.serve_channels svc ic oc);
        (try close_out oc with Sys_error _ -> ());
        (try close_in ic with Sys_error _ -> ()))
  in
  let ic = Unix.in_channel_of_descr a in
  let oc = Unix.out_channel_of_descr (Unix.dup a) in
  Fun.protect
    ~finally:(fun () ->
        (try output_string oc "(quit)\n"; flush oc with Sys_error _ -> ());
        (* drain what a failed check left unread, so the server's writes
           can finish and its session end *)
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ -> ());
        Domain.join server;
        (try close_out oc with Sys_error _ -> ());
        try close_in ic with Sys_error _ -> ())
    (fun () -> f ic oc)

(* Puts [job]'s result, computed by a fault-free service, into [svc]'s
   cache, so that [job] is a hit there without running. *)
let preload svc job =
  let stored =
    with_service @@ fun s ->
    match (ok (Server.Service.run_job s job)).Server.Service.outcome with
    | Ok out -> Sexp.to_string (Server.Exec.output_to_sexp out)
    | Error _ -> Alcotest.fail "preload job failed"
  in
  Server.Result_cache.store (Server.Service.cache svc)
    (Server.Result_cache.key
       ~trace_digest:(Server.Exec.trace_digest job.Server.Job.source)
       ~job_digest:(Server.Job.digest job))
    stored

let sim_line ?(extra = "") seed =
  Printf.sprintf "(simulate (trace-file %S) (size 64) (seed %d)%s)"
    (Lazy.force saved_synth_trace) seed extra

(* A hit pipelined behind a running miss waits for it: ready replies are
   written by the session's reader only when nothing is owed ahead of
   them.  One worker; the miss is held by a fault-plan delay, long enough
   that the (cancel 7) read after it finds it still running.  The later
   lines are sent once the miss runs, when its join has left the queue
   and only the writer owes its reply. *)
let test_inline_replies_keep_order () =
  let fault =
    Fault.Plan.create { Fault.Plan.default with delay = 1.0; delay_s = 0.4 }
  in
  let svc = Server.Service.create ~fault ~workers:1 ~queue_capacity:8 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  preload svc (sim_job 50);
  let miss = sim_line ~extra:" (id 7)" 51 and hit = sim_line 50 in
  let replies =
    with_session svc @@ fun ic oc ->
    let send lines = List.iter (fun l -> output_string oc (l ^ "\n")) lines; flush oc in
    send [ miss ];
    while (Server.Service.scheduler_stats svc).SC.running = 0 do
      Domain.cpu_relax ()
    done;
    send [ hit; "(stats)"; "(cancel 7)" ];
    List.init 3 (fun _ -> input_line ic)
  in
  let miss_job = match Server.Job.parse miss with Ok j -> j | Error e -> Alcotest.fail e in
  let cancelled =
    Server.Json.to_string
      (Server.Service.response_json svc
         { Server.Service.job = miss_job; cached = false; elapsed = 0.;
           outcome = Error Server.Service_core.Cancelled })
  in
  (match replies with
   | [ r_miss; r_hit; r_stats ] ->
     Alcotest.(check string) "the miss answers first, cancelled mid-run"
       (strip_elapsed cancelled) (strip_elapsed r_miss);
     Alcotest.(check string) "the hit answers second, as a direct request does"
       (strip_elapsed (List.hd (Server.Service.handle_line svc hit)))
       (strip_elapsed r_hit);
     Alcotest.(check bool) "stats, in reply order, counts the miss as completed" true
       (contains r_stats "\"completed\":1,\"rejected\":0,\"cancelled\":1")
   | _ -> Alcotest.fail "three replies expected")

(* A client may write all its requests before reading a reply: a reader
   that writes ready replies itself must not wedge the session. *)
let test_many_hits_before_reading () =
  with_service @@ fun svc ->
  preload svc (sim_job 52);
  let n = 2000 in
  let direct = strip_elapsed (List.hd (Server.Service.handle_line svc (sim_line 52))) in
  let replies =
    with_session svc @@ fun ic oc ->
    for _ = 1 to n do
      output_string oc (sim_line 52 ^ "\n")
    done;
    flush oc;
    List.init n (fun _ -> input_line ic)
  in
  Alcotest.(check int) "every hit answered" n (List.length replies);
  List.iter
    (fun r -> Alcotest.(check string) "each reply is the direct one" direct (strip_elapsed r))
    replies

(* The hit memo answers only for the string the cache still holds: a
   re-stored value is decoded afresh, and a corrupt one is answered as
   corrupt on every hit, never from the memo of what was there before. *)
let test_hit_memo_never_stale () =
  with_service @@ fun svc ->
  let job = sim_job 53 in
  let key =
    Server.Result_cache.key
      ~trace_digest:(Server.Exec.trace_digest job.Server.Job.source)
      ~job_digest:(Server.Job.digest job)
  in
  let cache = Server.Service.cache svc in
  let hit () =
    let r = ok (Server.Service.run_job svc job) in
    Alcotest.(check bool) "served from the cache" true r.Server.Service.cached;
    r
  in
  let line () = List.hd (Server.Service.handle_line svc (sim_line 53)) in
  let first = result_bytes (ok (Server.Service.run_job svc job)) in
  Alcotest.(check string) "hit = miss" first (result_bytes (hit ()));
  Alcotest.(check bool) "the reply embeds it" true (contains (line ()) first);
  let other = direct_bytes 54 in
  let other_out =
    Server.Exec.Simulate_out
      (Core.Simulator.run (sim_config 54) (Trace.Preprocess.run (Lazy.force synth_capture)))
  in
  Alcotest.(check bool) "the two outputs differ" true (other <> first);
  Server.Result_cache.store cache key (Sexp.to_string (Server.Exec.output_to_sexp other_out));
  Alcotest.(check string) "a re-stored value answers" other (result_bytes (hit ()));
  Alcotest.(check bool) "and its reply embeds it" true (contains (line ()) other);
  List.iter
    (fun corrupt ->
       Server.Result_cache.store cache key corrupt;
       for _ = 1 to 3 do
         (match (hit ()).Server.Service.outcome with
          | Error (Server.Service_core.Exec_failed msg) ->
            Alcotest.(check bool) ("corrupt entry reported: " ^ msg) true
              (contains msg "corrupt cache entry")
          | Ok _ -> Alcotest.fail "a corrupt entry answered a result"
          | Error _ -> Alcotest.fail "a corrupt entry failed the wrong way");
         let l = line () in
         Alcotest.(check bool) "its reply is the corrupt-entry error" true
           (contains l "\"status\":\"error\"" && contains l "corrupt cache entry")
       done)
    [ "(simulate-out (events"; "(no-such-out)" ];
  Server.Result_cache.store cache key (Sexp.to_string (Server.Exec.output_to_sexp other_out));
  Alcotest.(check string) "a valid value answers again" other (result_bytes (hit ()))

(* ---- single-flight ---- *)

(* Two identical misses pipelined on one session run once: the second
   joins the first's run and answers its bytes, [cached:true]. *)
let test_duplicate_runs_once () =
  with_service @@ fun svc ->
  let line = sim_line 60 in
  let replies =
    with_session svc @@ fun ic oc ->
    output_string oc (line ^ "\n" ^ line ^ "\n(stats)\n");
    flush oc;
    List.init 3 (fun _ -> input_line ic)
  in
  match replies with
  | [ a; b; stats ] ->
    let body l =
      let marker = "\"result\":" in
      let rec find i = if String.sub l i (String.length marker) = marker then i else find (i + 1) in
      String.sub l (find 0) (String.length l - find 0)
    in
    Alcotest.(check bool) "the first executes" true (contains a "\"cached\":false");
    Alcotest.(check bool) "the second joins it" true (contains b "\"cached\":true");
    Alcotest.(check string) "both carry the same result bytes" (body a) (body b);
    Alcotest.(check bool) "one execution" true
      (contains stats "\"jobs_executed\":1" && contains stats "\"misses\":1"
       && contains stats "\"completed\":1")
  | _ -> Alcotest.fail "three replies expected"

(* N concurrent identical submits, from N domains, execute once: a
   fault-plan delay holds the first run while the others arrive; one
   arriving after it finished is a cache hit, which executes nothing. *)
let prop_concurrent_duplicates_run_once =
  QCheck.Test.make ~name:"concurrent identical submits execute once" ~count:8
    QCheck.(pair (2 -- 6) (0 -- 1000))
    (fun (n, seed) ->
       let fault = Fault.Plan.create { Fault.Plan.default with delay = 1.0; delay_s = 0.05 } in
       let svc = Server.Service.create ~fault ~workers:2 ~queue_capacity:8 () in
       Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
       let job = sim_job (1000 + seed) in
       let replies =
         List.init n (fun _ -> Domain.spawn (fun () -> ok (Server.Service.run_job svc job)))
         |> List.map Domain.join
       in
       let s = Server.Service.scheduler_stats svc in
       s.SC.completed = 1 && s.SC.executed = 1
       && List.length (List.filter (fun r -> not r.Server.Service.cached) replies) = 1
       && List.for_all (fun r -> result_bytes r = result_bytes (List.hd replies)) replies)

(* ---- simulation: the core under seeded interleavings ---- *)

(* Each plan drives [Service_core] alone through a seeded interleaving:
   three sessions pipeline jobs (single and batched, some spent or
   unreadable, with deadlines, timeouts and priorities over a few cache
   keys, so duplicates are common), pings, stats and cancels of earlier
   wire ids; API callers submit too.  The simulated shell answers
   lookups and stores after seeded delays, and its workers finish, raise,
   change files under a run, and notice (or ignore) stops.  After every
   step the invariants the core promises are checked; a failure names the
   plan, and [svc_sim_run P] replays it exactly. *)

type sim_job = {
  wire : int;
  key : int;
  src : [ `Key | `Spent | `Unreadable ];
  jdeadline : float option;
  jtimeout : float option;
  prio : int;
}

type sim_line = Jobs of sim_job list | Stats_req | Ping | Cancel_req of int

type sim_ev =
  | Send of int                 (* the session's next line *)
  | Api of sim_job
  | Look of SC.waiter * int
  | Ends of int * SC.finish     (* worker token, how it ends *)
  | Stored_ev of int
  | Tick_ev

module Events = Map.Make (struct
    type t = float * int
    let compare = compare
  end)

type sim = {
  plan : int;
  rng : Random.State.t;
  c : SC.t;
  mutable now : float;
  mutable events : sim_ev Events.t;
  mutable seq : int;
  lines : sim_line array array;
  next : int array;
  owed : (int, sim_line Queue.t) Hashtbl.t;   (* per session: lines sent, reply not yet written *)
  cache : (int, unit) Hashtbl.t;          (* keys stored *)
  executing : (int, int) Hashtbl.t;       (* key -> its live worker token *)
  tokens : (int, int) Hashtbl.t;          (* live token -> key *)
  storing : (int, unit) Hashtbl.t;
  jobs : (int, sim_job * float) Hashtbl.t;   (* wire id -> job, arrival *)
  answered : (int, unit) Hashtbl.t;
  cancelled : (int, unit) Hashtbl.t;      (* cancels the core honoured *)
  mutable overloaded : int;               (* replies refusing a full queue *)
  mutable scenarios : int;
  mutable joins : int;
  mutable depth_waits : int;
  trace : Buffer.t;
}

let svc_sim_fail w msg =
  Alcotest.fail
    (Printf.sprintf "service simulation plan %d at t=%.4f: %s (replay: svc_sim_run %d)"
       w.plan w.now msg w.plan)

let sim_at w time ev =
  w.seq <- w.seq + 1;
  w.events <- Events.add (time, w.seq) ev w.events

let sim_out k =
  Server.Exec.Stats_out
    { events = k; primitives = k; functions = 0; max_depth = 0; distinct_lists = 0; mix = [] }

let sim_json k = Server.Json.to_string (Server.Exec.output_to_json (sim_out k))
let sim_key k = Printf.sprintf "key%d" k

let key_of_string s = int_of_string (String.sub s 3 (String.length s - 3))

let sim_core_job j =
  core_job ?timeout:j.jtimeout ?deadline:j.jdeadline ~priority:j.prio ~wire_id:j.wire j.key

let sim_source j =
  match j.src with
  | `Key -> SC.Keyed { key = sim_key j.key; expect = None }
  | `Spent -> SC.Spent
  | `Unreadable -> SC.Unreadable "no such file"

let sim_check w =
  let s = SC.stats w.c in
  if s.SC.done_ + s.SC.failed + s.SC.cancelled + s.SC.timed_out + s.SC.shed <> s.SC.completed
  then svc_sim_fail w "outcome counters do not sum to completed";
  (* a refusal is counted when it is decided, and answered in session order *)
  if w.overloaded > s.SC.rejected then svc_sim_fail w "an overloaded reply not counted rejected";
  Array.iteri
    (fun sid _ ->
       if SC.owed w.c sid > SC.pipeline_depth then
         svc_sim_fail w (Printf.sprintf "session %d owes %d replies" sid (SC.owed w.c sid)))
    w.lines

(* One job's answer: exactly once, and never ok bytes for a waiter that
   was cancelled or whose deadline had passed when it was answered. *)
let sim_answered w j (reply : SC.reply) =
  if Hashtbl.mem w.answered j.wire then svc_sim_fail w (Printf.sprintf "job %d answered twice" j.wire);
  Hashtbl.replace w.answered j.wire ();
  let cancelled = Hashtbl.mem w.cancelled j.wire in
  match reply with
  | Ok { outcome = Ok out; elapsed; cached; _ } ->
    if cancelled then svc_sim_fail w (Printf.sprintf "cancelled job %d got ok" j.wire);
    (match j.jdeadline with
     | Some d when elapsed > d +. 1e-9 ->
       svc_sim_fail w (Printf.sprintf "expired job %d got ok" j.wire)
     | _ -> ());
    if out <> sim_out j.key then svc_sim_fail w (Printf.sprintf "job %d got another key's result" j.wire);
    if cached && not (Hashtbl.mem w.cache j.key) then w.joins <- w.joins + 1
  | Ok { outcome = Error SC.Cancelled; _ } -> ()
  | Ok _ | Error _ ->
    if reply = Error `Overloaded then w.overloaded <- w.overloaded + 1;
    if cancelled then svc_sim_fail w (Printf.sprintf "cancelled job %d answered otherwise" j.wire)

let sim_write w sid lines replies =
  match Queue.take_opt (Hashtbl.find w.owed sid) with
  | None -> svc_sim_fail w (Printf.sprintf "session %d got a reply it is not owed" sid)
  | Some (Jobs js) ->
    if List.length js <> List.length lines || List.length js <> List.length replies then
      svc_sim_fail w "batch reply has the wrong length";
    List.iter2
      (fun j l ->
         if sid >= 1000 then begin
           (* an API caller's session: no line is rendered *)
           if l <> "" then svc_sim_fail w ("an API reply rendered a line: " ^ l)
         end
         else if not (String.starts_with ~prefix:(Printf.sprintf "{\"id\":%d," j.wire) l) then
           svc_sim_fail w (Printf.sprintf "session %d: reply out of order: %s" sid l);
         if contains l "\"status\":\"ok\"" && not (contains l ("\"result\":" ^ sim_json j.key ^ "}"))
         then svc_sim_fail w ("ok reply without its result bytes: " ^ l))
      js lines;
    List.iter2 (sim_answered w) js replies
  | Some Ping -> if lines <> [ "pong" ] then svc_sim_fail w "ping answered out of order"
  | Some (Stats_req | Cancel_req _) -> svc_sim_fail w "a stats line answered as lines"

let sim_trace w a =
  Buffer.add_string w.trace (Printf.sprintf "%.6f " w.now);
  Buffer.add_string w.trace
    (match (a : SC.action) with
     | Lookup { key; _ } -> "lookup " ^ key
     | Run { key; _ } -> "run " ^ key
     | Stop key -> "stop " ^ key
     | Store { key; _ } -> "store " ^ key
     | Write { session; lines; _ } -> Printf.sprintf "write %d %s" session (String.concat "|" lines)
     | Write_stats session -> Printf.sprintf "stats %d" session);
  Buffer.add_char w.trace '\n'

let rec sim_step w input =
  List.iter (sim_action w) (SC.step w.c input);
  sim_check w

and sim_action w a =
  sim_trace w a;
  let r = w.rng in
  match a with
  | Lookup { waiter; key } ->
    let k = key_of_string key in
    if Hashtbl.mem w.executing k || Hashtbl.mem w.storing k then
      svc_sim_fail w ("a lookup for a key whose run is in flight: " ^ key);
    sim_at w (w.now +. Random.State.float r 0.002) (Look (waiter, k))
  | Run { key; _ } ->
    let k = key_of_string key in
    if Hashtbl.mem w.executing k || Hashtbl.mem w.storing k then
      svc_sim_fail w ("a key executes twice: " ^ key);
    w.seq <- w.seq + 1;
    let token = w.seq in
    Hashtbl.replace w.executing k token;
    Hashtbl.replace w.tokens token k;
    let u = Random.State.float r 1.0 in
    let finish =
      if u < 0.72 then SC.Done (sim_out k)
      else if u < 0.95 then SC.Raised "Failure(\"flaky\")"
      else SC.Changed "trace changed"
    in
    sim_at w (w.now +. 0.001 +. Random.State.float r 0.03) (Ends (token, finish))
  | Stop key ->
    (* most jobs poll and stop soon; some never poll and run to the end *)
    (match Hashtbl.find_opt w.executing (key_of_string key) with
     | Some token when Random.State.float r 1.0 < 0.7 ->
       sim_at w (w.now +. Random.State.float r 0.001) (Ends (token, SC.Stopped))
     | _ -> ())
  | Store { key; out } ->
    let k = key_of_string key in
    if out <> sim_out k then svc_sim_fail w ("stored another key's result under " ^ key);
    Hashtbl.replace w.storing k ();
    sim_at w (w.now +. Random.State.float r 0.002) (Stored_ev k)
  | Write { session; lines; replies } -> sim_write w session lines replies
  | Write_stats session ->
    (match Queue.take_opt (Hashtbl.find w.owed session) with
     | Some Stats_req -> ()
     | _ -> svc_sim_fail w "a stats reply out of order")

let sim_event w = function
  | Send sid ->
    let line = w.lines.(sid).(w.next.(sid)) in
    let advance () =
      w.next.(sid) <- w.next.(sid) + 1;
      if w.next.(sid) < Array.length w.lines.(sid) then
        (* a burst session writes its lines back to back *)
        let gap = if Array.length w.lines.(sid) > 100 then 1e-5 else Random.State.float w.rng 0.004 in
        sim_at w (w.now +. gap) (Send sid)
    in
    (match line with
     | Cancel_req id ->
       let before = (SC.stats w.c).SC.cancels in
       sim_step w (SC.Cancel { id; now = w.now });
       if (SC.stats w.c).SC.cancels > before then Hashtbl.replace w.cancelled id ();
       advance ()
     | _ when SC.owed w.c sid >= SC.pipeline_depth ->
       (* the reader waits for the writer *)
       w.depth_waits <- w.depth_waits + 1;
       sim_at w (w.now +. 0.001) (Send sid)
     | Jobs js ->
       w.scenarios <- w.scenarios + 1;
       List.iter (fun j -> Hashtbl.replace w.jobs j.wire (j, w.now)) js;
       Queue.push line (Hashtbl.find w.owed sid);
       let parts = List.map (fun j -> SC.Job (sim_core_job j, sim_source j)) js in
       sim_step w (SC.Request { session = sid; request = SC.Parts parts; now = w.now });
       advance ()
     | Stats_req | Ping ->
       w.scenarios <- w.scenarios + 1;
       Queue.push line (Hashtbl.find w.owed sid);
       let request = if line = Ping then SC.Parts [ SC.Line "pong" ] else SC.Stats in
       sim_step w (SC.Request { session = sid; request; now = w.now });
       advance ())
  | Api j ->
    (* an API caller's submit is a session of its own *)
    w.scenarios <- w.scenarios + 1;
    Hashtbl.replace w.jobs j.wire (j, w.now);
    let q = Queue.create () in
    Queue.push (Jobs [ j ]) q;
    Hashtbl.replace w.owed (1000 + j.wire) q;
    sim_step w
      (SC.Request
         { session = 1000 + j.wire; now = w.now;
           request = SC.Submit (sim_core_job j, sim_source j) })
  | Look (waiter, k) ->
    let stored =
      if not (Hashtbl.mem w.cache k) then None
      else if Random.State.float w.rng 1.0 < 0.05 then Some "(simulate-out (events"
      else Some (Sexp.to_string (Server.Exec.output_to_sexp (sim_out k)))
    in
    sim_step w (SC.Looked_up { waiter; stored; now = w.now })
  | Ends (token, finish) ->
    (match Hashtbl.find_opt w.tokens token with
     | None -> ()            (* it already ended: a stop it noticed *)
     | Some k ->
       Hashtbl.remove w.tokens token;
       Hashtbl.remove w.executing k;
       sim_step w (SC.Finished { key = sim_key k; finish; now = w.now }))
  | Stored_ev k ->
    (* the run's waiters are answered in this step: they joined it, the
       cache did not answer them *)
    Hashtbl.remove w.storing k;
    sim_step w (SC.Stored { key = sim_key k; now = w.now });
    Hashtbl.replace w.cache k ()
  | Tick_ev ->
    (* the shell's ticker, every 5 ms while anything is left to do *)
    sim_step w (SC.Tick w.now);
    let s = SC.stats w.c in
    if not (Events.is_empty w.events && s.SC.queued + s.SC.running = 0) then
      sim_at w (w.now +. 0.005) Tick_ev

(* One plan's requests: three sessions of about a dozen lines, a burst
   of 140 lines on session 0 in every eighth plan (past the pipeline
   depth), and a few API submits. *)
let sim_requests p rng =
  let wire = ref 0 in
  let keys = 3 + (p mod 4) in
  let job () =
    incr wire;
    let u = Random.State.float rng 1.0 in
    { wire = !wire; key = Random.State.int rng keys;
      src = (if u < 0.04 then `Spent else if u < 0.07 then `Unreadable else `Key);
      jdeadline =
        (if Random.State.float rng 1.0 < 0.2 then Some (0.002 +. Random.State.float rng 0.06)
         else None);
      jtimeout =
        (if Random.State.float rng 1.0 < 0.15 then Some (0.002 +. Random.State.float rng 0.04)
         else None);
      prio = Random.State.int rng 3 }
  in
  let line () =
    let u = Random.State.float rng 1.0 in
    if u < 0.6 then Jobs [ job () ]
    else if u < 0.72 then Jobs (List.init (2 + Random.State.int rng 2) (fun _ -> job ()))
    else if u < 0.8 then Stats_req
    else if u < 0.86 then Ping
    else if !wire = 0 then Ping
    else Cancel_req (1 + Random.State.int rng !wire)
  in
  let session sid =
    let n = 10 + Random.State.int rng 5 + if sid = 0 && p mod 8 = 0 then 140 else 0 in
    Array.init n (fun _ -> line ())
  in
  let lines = Array.init 3 session in
  let api = List.init (Random.State.int rng 4) (fun _ -> job ()) in
  (lines, api)

let svc_sim_run p =
  let rng = Random.State.make [| p |] in
  let cfg =
    { SC.workers = 1 + (p mod 3); capacity = [| 1; 2; 4; 8 |].(p / 3 mod 4);
      retries = p mod 3; backoff = 0.005;
      jitter_seed = (if p mod 2 = 0 then Some p else None); shard_id = None }
  in
  let lines, api = sim_requests p rng in
  let w =
    { plan = p; rng; c = SC.create cfg; now = 0.; events = Events.empty; seq = 0; lines;
      next = Array.make 3 0; owed = Hashtbl.create 8;
      cache = Hashtbl.create 8; executing = Hashtbl.create 8; tokens = Hashtbl.create 8;
      storing = Hashtbl.create 8; jobs = Hashtbl.create 64; answered = Hashtbl.create 64;
      cancelled = Hashtbl.create 8; overloaded = 0; scenarios = 0; joins = 0;
      depth_waits = 0; trace = Buffer.create 4096 }
  in
  if p mod 5 = 0 then Hashtbl.replace w.cache 0 ();
  Array.iteri
    (fun sid _ ->
       Hashtbl.replace w.owed sid (Queue.create ());
       sim_at w (Random.State.float rng 0.002) (Send sid))
    lines;
  List.iter (fun j -> sim_at w (Random.State.float rng 0.05) (Api j)) api;
  sim_at w 0.005 Tick_ev;
  let rec loop () =
    match Events.min_binding_opt w.events with
    | None -> ()
    | Some (((time, _) as k), ev) ->
      if time > 60. then svc_sim_fail w "still busy after 60 simulated seconds";
      w.events <- Events.remove k w.events;
      w.now <- time;
      sim_event w ev;
      loop ()
  in
  loop ();
  Hashtbl.iter
    (fun sid q ->
       if not (Queue.is_empty q) then
         svc_sim_fail w (Printf.sprintf "session %d: %d lines never answered" sid (Queue.length q)))
    w.owed;
  Hashtbl.iter
    (fun id _ -> if not (Hashtbl.mem w.answered id) then svc_sim_fail w (Printf.sprintf "job %d never answered" id))
    w.jobs;
  if (SC.stats w.c).SC.rejected <> w.overloaded then
    svc_sim_fail w
      (Printf.sprintf "rejected %d, but %d overloaded replies" (SC.stats w.c).SC.rejected
         w.overloaded);
  sim_step w SC.Shutdown;
  if not (SC.drained w.c) then svc_sim_fail w "the core is not drained at the end";
  w

let test_svc_sim_battery () =
  let plans = 160 in
  let scenarios = ref 0 and joins = ref 0 and depth_waits = ref 0 in
  let totals = ref [] in
  let t0 = Unix.gettimeofday () in
  for p = 0 to plans - 1 do
    let w = svc_sim_run p in
    scenarios := !scenarios + w.scenarios;
    joins := !joins + w.joins;
    depth_waits := !depth_waits + w.depth_waits;
    totals := SC.stats w.c :: !totals
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "service simulation: %d scenarios in %.2fs (%.0f per second)\n%!" !scenarios dt
    (float_of_int !scenarios /. dt);
  Alcotest.(check bool) (Printf.sprintf "%d scenarios (>= 5000)" !scenarios) true
    (!scenarios >= 5000);
  (* every policy the core owns was exercised somewhere in the battery *)
  let sum f = List.fold_left (fun a s -> a + f s) 0 !totals in
  List.iter
    (fun (name, n) ->
       Alcotest.(check bool) (Printf.sprintf "%s exercised (%d)" name n) true (n > 0))
    [ ("joins", !joins); ("depth waits", !depth_waits);
      ("executed", sum (fun s -> s.SC.executed)); ("failed", sum (fun s -> s.SC.failed));
      ("retried", sum (fun s -> s.SC.retried)); ("shed", sum (fun s -> s.SC.shed));
      ("rejected", sum (fun s -> s.SC.rejected));
      ("cancelled", sum (fun s -> s.SC.cancelled)); ("cancels", sum (fun s -> s.SC.cancels));
      ("timed out", sum (fun s -> s.SC.timed_out)) ]

let test_svc_sim_replays () =
  let trace p = Buffer.contents (svc_sim_run p).trace in
  let a = trace 7 and b = trace 7 in
  Alcotest.(check bool) "the trace is not empty" true (String.length a > 1000);
  Alcotest.(check string) "a seed replays byte for byte" a b;
  Alcotest.(check bool) "another seed differs" false (String.equal a (trace 8))

let test_remove_stale_socket () =
  let socket () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let connects path =
    let fd = socket () in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  (* missing file: fine, the socket is bound there *)
  let path = Filename.temp_file "stale" ".sock" in
  Sys.remove path;
  let first = socket () in
  Server.Service.bind_socket_replacing first path;
  (* its server is killed: the socket file is left behind, stale *)
  Unix.close first;
  Alcotest.(check bool) "socket file left behind" true (Sys.file_exists path);
  Alcotest.(check bool) "nobody answers there" false (connects path);
  (* a stale socket is replaced by the new one *)
  let live = socket () in
  Server.Service.bind_socket_replacing live path;
  (* room for every probe below: a full backlog blocks a connect *)
  Unix.listen live 8;
  Alcotest.(check bool) "stale socket replaced by a live one" true (connects path);
  (* a regular file is NOT clobbered *)
  let reg = Filename.temp_file "notasock" ".txt" in
  let other = socket () in
  (match Server.Service.bind_socket_replacing other reg with
   | () -> Alcotest.fail "regular file must not be treated as a stale socket"
   | exception Failure msg ->
     Alcotest.(check bool) "diagnostic names the path" true (contains msg reg));
  Alcotest.(check bool) "regular file untouched" true
    (Sys.file_exists reg && (Unix.lstat reg).Unix.st_kind = Unix.S_REG);
  Sys.remove reg;
  (* a live listener is refused, not replaced *)
  (match Server.Service.bind_socket_replacing other path with
   | () -> Alcotest.fail "live server must not be clobbered"
   | exception Failure msg ->
     Alcotest.(check bool) "diagnostic says listening" true
       (contains msg "already listening"));
  Alcotest.(check bool) "live socket untouched" true (connects path);
  Unix.close other;
  Unix.close live;
  Sys.remove path

let () =
  Alcotest.run "server"
    [ ("sim",
       [ Alcotest.test_case "service core under seeded interleavings, invariants every step"
           `Quick test_svc_sim_battery;
         Alcotest.test_case "a seed replays byte-identical actions" `Quick test_svc_sim_replays ]);
      ("single-flight",
       [ Alcotest.test_case "pipelined duplicate misses run once" `Quick test_duplicate_runs_once;
         QCheck_alcotest.to_alcotest prop_concurrent_duplicates_run_once ]);
      ("scheduler",
       [ Alcotest.test_case "fifo order" `Quick test_fifo_order;
         Alcotest.test_case "backpressure" `Quick test_backpressure;
         Alcotest.test_case "a shed admission is not a rejection" `Quick test_shed_is_not_a_rejection;
         Alcotest.test_case "timeout" `Quick test_timeout;
         Alcotest.test_case "cancel" `Quick test_cancel;
         Alcotest.test_case "failure" `Quick test_failure_capture;
         Alcotest.test_case "failure keeps pool usable" `Quick
           test_failure_keeps_pool_usable;
         Alcotest.test_case "metrics under concurrency" `Quick
           test_scheduler_metrics_concurrent ]);
      ("result cache",
       [ Alcotest.test_case "memory accounting" `Quick test_cache_memory_accounting;
         Alcotest.test_case "disk persistence" `Quick test_cache_disk_persistence;
         Alcotest.test_case "metrics" `Quick test_cache_metrics;
         Alcotest.test_case "key shape" `Quick test_cache_key_shape ]);
      ("sessions",
       [ Alcotest.test_case "inline replies keep session order" `Quick
           test_inline_replies_keep_order;
         Alcotest.test_case "many hits before reading" `Quick test_many_hits_before_reading ]);
      ("hit memo",
       [ Alcotest.test_case "never serves stale bytes" `Quick test_hit_memo_never_stale ]);
      ("jobs",
       [ Alcotest.test_case "parse" `Quick test_job_parse;
         Alcotest.test_case "sexp roundtrip" `Quick test_job_sexp_roundtrip;
         Alcotest.test_case "errors" `Quick test_job_errors;
         Alcotest.test_case "digest semantics" `Quick test_job_digest_semantics ]);
      ("exec", [ Alcotest.test_case "output sexp roundtrip" `Quick test_output_sexp_roundtrip ]);
      ("service",
       [ Alcotest.test_case "matches direct runs" `Quick test_service_matches_direct_runs;
         Alcotest.test_case "wide primitive stats" `Quick test_wide_primitive_stats;
         Alcotest.test_case "cache hit" `Quick test_service_cache_hit;
         Alcotest.test_case "file rewritten while queued" `Quick test_rewrite_while_queued;
         Alcotest.test_case "wire handling" `Quick test_handle_line ]);
      ("wire",
       [ Alcotest.test_case "ping and shard field" `Quick test_ping_and_shard_field;
         Alcotest.test_case "framing under tiny writes" `Quick
           test_framing_tiny_writes;
         Alcotest.test_case "stale socket removal" `Quick test_remove_stale_socket ]) ]
