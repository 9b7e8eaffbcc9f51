(* Tests for the job service: scheduler ordering/backpressure/timeouts/
   cancellation, the content-addressed result cache (memory and disk),
   job parsing and digesting, and the end-to-end guarantee that served
   results are identical to direct Core.Simulator runs. *)

module Sch = Server.Scheduler
module D = Sexp.Datum

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "unexpected submit error"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let wait_for ?(tries = 2000) pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.fail "condition never became true"
    else begin
      Unix.sleepf 0.002;
      go (n - 1)
    end
  in
  go tries

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* ---- scheduler ---- *)

let test_fifo_order () =
  let s = Sch.create ~workers:1 ~capacity:16 () in
  let order = ref [] in
  let lock = Mutex.create () in
  let tickets =
    List.map
      (fun i ->
         ok
           (Sch.submit s (fun ~should_stop:_ ->
                Mutex.lock lock;
                order := i :: !order;
                Mutex.unlock lock;
                i)))
      [ 1; 2; 3; 4; 5 ]
  in
  List.iteri
    (fun idx t ->
       match Sch.await s t with
       | Sch.Done v -> Alcotest.(check int) "result" (idx + 1) v
       | _ -> Alcotest.fail "job did not complete")
    tickets;
  Alcotest.(check (list int)) "single worker runs FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !order);
  Sch.shutdown s

let test_backpressure () =
  let s = Sch.create ~workers:1 ~capacity:1 () in
  let gate = Atomic.make false in
  let blocker ~should_stop:_ =
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    0
  in
  let t1 = ok (Sch.submit s blocker) in
  wait_for (fun () -> (Sch.stats s).Sch.running = 1);
  let t2 = ok (Sch.submit s (fun ~should_stop:_ -> 1)) in
  (match Sch.submit s (fun ~should_stop:_ -> 2) with
   | Error `Queue_full -> ()
   | Ok _ | Error `Shutdown -> Alcotest.fail "expected Queue_full");
  Alcotest.(check int) "rejection counted" 1 (Sch.stats s).Sch.rejected;
  Atomic.set gate true;
  (match Sch.await s t1, Sch.await s t2 with
   | Sch.Done 0, Sch.Done 1 -> ()
   | _ -> Alcotest.fail "queued jobs must still run");
  Sch.shutdown s

let test_timeout () =
  let s = Sch.create ~workers:1 ~capacity:4 () in
  (* a polling job aborts early via Stop *)
  let t1 =
    ok
      (Sch.submit s ~timeout:0.05 (fun ~should_stop ->
           while not (should_stop ()) do
             Unix.sleepf 0.002
           done;
           raise Sch.Stop))
  in
  (match Sch.await s t1 with
   | Sch.Timed_out -> ()
   | _ -> Alcotest.fail "polling job must time out");
  (* a non-polling job is classified at completion, result discarded *)
  let t2 =
    ok (Sch.submit s ~timeout:0.01 (fun ~should_stop:_ -> Unix.sleepf 0.05; 7))
  in
  (match Sch.await s t2 with
   | Sch.Timed_out -> ()
   | _ -> Alcotest.fail "overdue job must be classified Timed_out");
  Alcotest.(check int) "timeouts counted" 2 (Sch.stats s).Sch.timed_out;
  Sch.shutdown s

let test_cancel () =
  let s = Sch.create ~workers:1 ~capacity:4 () in
  let gate = Atomic.make false in
  let t1 =
    ok
      (Sch.submit s (fun ~should_stop ->
           while not (Atomic.get gate) && not (should_stop ()) do
             Unix.sleepf 0.002
           done;
           if should_stop () then raise Sch.Stop;
           0))
  in
  wait_for (fun () -> (Sch.stats s).Sch.running = 1);
  let t2 = ok (Sch.submit s (fun ~should_stop:_ -> 1)) in
  Alcotest.(check bool) "pending job cancels immediately" true (Sch.cancel s t2);
  (match Sch.await s t2 with
   | Sch.Cancelled -> ()
   | _ -> Alcotest.fail "cancelled pending job");
  Alcotest.(check bool) "running job only gets the flag" false (Sch.cancel s t1);
  (match Sch.await s t1 with
   | Sch.Cancelled -> ()
   | _ -> Alcotest.fail "polling job must observe cancellation");
  Sch.shutdown s

let test_failure_capture () =
  let s = Sch.create ~workers:1 ~capacity:4 () in
  let t = ok (Sch.submit s (fun ~should_stop:_ -> failwith "boom")) in
  (match Sch.await s t with
   | Sch.Failed msg ->
     Alcotest.(check bool) "exception text captured" true (contains msg "boom")
   | _ -> Alcotest.fail "raising job must be Failed");
  Sch.shutdown s

(* A thunk that raises must settle its ticket as Failed, restore the
   in-flight accounting, and leave the worker alive for the next job. *)
let test_failure_keeps_pool_usable () =
  let reg = Obs.Registry.create () in
  let s = Sch.create ~metrics:reg ~workers:1 ~capacity:4 () in
  let t1 = ok (Sch.submit s (fun ~should_stop:_ -> failwith "die")) in
  (match Sch.await s t1 with
   | Sch.Failed _ -> ()
   | _ -> Alcotest.fail "raising job must be Failed");
  let t2 = ok (Sch.submit s (fun ~should_stop:_ -> 9)) in
  (match Sch.await s t2 with
   | Sch.Done 9 -> ()
   | _ -> Alcotest.fail "the worker must survive a raising thunk");
  Alcotest.(check int) "running accounting restored" 0 (Sch.stats s).Sch.running;
  let gauge name =
    Obs.Metric.Gauge.get (Obs.Registry.gauge reg name)
  in
  Alcotest.(check int) "in-flight gauge restored" 0 (gauge "small_sched_inflight");
  Alcotest.(check int) "queue-depth gauge empty" 0 (gauge "small_sched_queue_depth");
  Sch.shutdown s

(* N jobs across mixed outcomes on a shared registry: the per-outcome
   counters must sum to N and the gauges must settle back to zero. *)
let test_scheduler_metrics_concurrent () =
  let reg = Obs.Registry.create () in
  let s = Sch.create ~metrics:reg ~workers:4 ~capacity:128 () in
  let submitted = ref 0 in
  let tickets = ref [] in
  let push t = incr submitted; tickets := t :: !tickets in
  for i = 1 to 60 do
    match i mod 4 with
    | 0 -> push (ok (Sch.submit s (fun ~should_stop:_ -> i)))
    | 1 -> push (ok (Sch.submit s (fun ~should_stop:_ -> failwith "boom")))
    | 2 ->
      push
        (ok
           (Sch.submit s ~timeout:0.005 (fun ~should_stop ->
                while not (should_stop ()) do
                  Unix.sleepf 0.001
                done;
                raise Sch.Stop)))
    | _ ->
      let t =
        ok
          (Sch.submit s (fun ~should_stop ->
               Unix.sleepf 0.002;
               if should_stop () then raise Sch.Stop;
               i))
      in
      ignore (Sch.cancel s t : bool);
      push t
  done;
  List.iter (fun t -> ignore (Sch.await s t : int Sch.outcome)) !tickets;
  let counter labels =
    Obs.Metric.Counter.get
      (Obs.Registry.counter reg ~labels "small_sched_jobs_total")
  in
  let outcomes =
    List.map (fun o -> counter [ ("outcome", o) ])
      [ "done"; "failed"; "timed_out"; "cancelled" ]
  in
  Alcotest.(check int) "per-outcome counters sum to N" !submitted
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
    (hist_count "small_sched_run_seconds" > 0);
  Sch.shutdown s

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
  let l i = D.list [ D.int i; D.int (i + 1) ] in
  let wide = List.init 25 (fun i -> if i mod 2 = 0 then D.int i else l i) in
  let c = Trace.Capture.create () in
  List.iter (Trace.Capture.record c)
    [ Trace.Event.Call { name = "f"; nargs = 1 };
      Trace.Event.Prim { prim = Trace.Event.Cons; args = [ D.int 0; l 1 ]; result = l 0 };
      Trace.Event.Prim { prim = Trace.Event.Car; args = wide; result = D.int 1 };
      Trace.Event.Return { name = "f" } ];
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
  | Error (Server.Service.Exec_failed _) -> ()
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
   | Error (Server.Service.Source_error _) -> ()
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
    0 (Server.Service.scheduler_stats svc).Sch.completed

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
    while (Server.Service.scheduler_stats svc).Sch.running = 0 do
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
           outcome = Error Server.Service.Cancelled })
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
          | Error (Server.Service.Exec_failed msg) ->
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
    [ ("scheduler",
       [ Alcotest.test_case "fifo order" `Quick test_fifo_order;
         Alcotest.test_case "backpressure" `Quick test_backpressure;
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
