(* Fault-injection tests: deterministic seeded plans, scheduler
   retry/backoff/deadline behaviour, priority shedding and the service
   overload ladder, wire-garbage handling, and the 60-job storm
   acceptance test (every job completes with a fault-free-identical
   result or a typed error; the pool survives; a damaged result store is
   recomputed, never served).  Crash-safety of the store itself is
   tested in test_store. *)

module P = Fault.Plan
module Sch = Server.Scheduler

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

(* ---- the plan itself ---- *)

let mixed_cfg seed =
  { P.default with seed; write_fail = 0.2; torn_write = 0.15; crash = 0.2;
    delay = 0.2; delay_s = 0.001; garbage = 0.4 }

let write_seq plan site n =
  List.init n (fun _ ->
      match P.on_write plan ~site with
      | None -> "-"
      | Some P.Write_error -> "E"
      | Some (P.Torn_write f) -> Printf.sprintf "T%.4f" f)

let job_seq plan site n =
  List.init n (fun _ ->
      match P.on_job plan ~site with
      | None -> "-"
      | Some P.Crash -> "C"
      | Some (P.Delay s) -> Printf.sprintf "D%.5f" s)

let test_plan_deterministic () =
  let a = P.create (mixed_cfg 42) and b = P.create (mixed_cfg 42) in
  Alcotest.(check (list string)) "same seed, same write schedule"
    (write_seq a "store.append" 300) (write_seq b "store.append" 300);
  Alcotest.(check (list string)) "same seed, same job schedule"
    (job_seq a "sched.job" 300) (job_seq b "sched.job" 300);
  let c = P.create (mixed_cfg 43) in
  Alcotest.(check bool) "different seed, different schedule" true
    (write_seq (P.create (mixed_cfg 42)) "store.append" 300
     <> write_seq c "store.append" 300);
  (* sites draw independent streams *)
  let d = P.create (mixed_cfg 42) in
  Alcotest.(check bool) "sites are independent streams" true
    (write_seq d "store.append" 300 <> write_seq d "trace.save" 300)

let test_plan_rates () =
  let plan = P.create { P.default with seed = 7; write_fail = 0.3; torn_write = 0.2 } in
  let n = 2000 in
  let faults =
    List.length (List.filter (fun s -> s <> "-") (write_seq plan "s" n))
  in
  let rate = float_of_int faults /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "injection rate %.3f tracks 0.5" rate) true
    (rate > 0.44 && rate < 0.56);
  Alcotest.(check int) "counts agree with draws" faults (P.total plan)

let test_plan_validation () =
  let bad cfg =
    match P.create cfg with
    | (_ : P.t) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "probability > 1 rejected" true
    (bad { P.default with write_fail = 1.5 });
  Alcotest.(check bool) "negative probability rejected" true
    (bad { P.default with crash = -0.1 });
  Alcotest.(check bool) "write_fail + torn_write > 1 rejected" true
    (bad { P.default with write_fail = 0.7; torn_write = 0.7 });
  Alcotest.(check bool) "negative delay rejected" true
    (bad { P.default with delay_s = -1. })

let test_plan_file_roundtrip () =
  let cfg = mixed_cfg 99 in
  (match P.config_of_sexp (P.to_sexp cfg) with
   | Ok back -> Alcotest.(check bool) "sexp round-trip" true (back = cfg)
   | Error msg -> Alcotest.fail msg);
  let path = Filename.temp_file "plan" ".sexp" in
  let oc = open_out path in
  output_string oc (Sexp.to_string (P.to_sexp cfg));
  close_out oc;
  (match P.load path with
   | Ok plan -> Alcotest.(check bool) "loaded config matches" true (P.config plan = cfg)
   | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  (match P.load "/nonexistent/fault.plan" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing plan file must be an error");
  let path = Filename.temp_file "plan" ".sexp" in
  let oc = open_out path in
  output_string oc "(not-a-plan)";
  close_out oc;
  (match P.load path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "malformed plan must be an error");
  Sys.remove path

(* ---- scheduler: retry, deadline, shed ---- *)

let test_retry_recovers () =
  let reg = Obs.Registry.create () in
  let s = Sch.create ~metrics:reg ~backoff:0.001 ~workers:1 ~capacity:4 () in
  let attempts = Atomic.make 0 in
  let t =
    ok
      (Sch.submit s ~retries:3 (fun ~should_stop:_ ->
           if Atomic.fetch_and_add attempts 1 < 2 then failwith "flaky" else 7))
  in
  (match Sch.await s t with
   | Sch.Done 7 -> ()
   | _ -> Alcotest.fail "flaky job must succeed within its retry budget");
  Alcotest.(check int) "two retries burned" 2 (Sch.stats s).Sch.retried;
  Alcotest.(check int) "three attempts run" 3 (Atomic.get attempts);
  Alcotest.(check int) "small_jobs_retried_total" 2
    (Obs.Metric.Counter.get (Obs.Registry.counter reg "small_jobs_retried_total"));
  Sch.shutdown s

let test_retry_budget_exhausted () =
  let s = Sch.create ~backoff:0.001 ~workers:1 ~capacity:4 () in
  let attempts = Atomic.make 0 in
  let t =
    ok
      (Sch.submit s ~retries:2 (fun ~should_stop:_ ->
           Atomic.incr attempts;
           failwith "always"))
  in
  (match Sch.await s t with
   | Sch.Failed msg ->
     Alcotest.(check bool) "failure text survives retries" true (contains msg "always")
   | _ -> Alcotest.fail "exhausted budget must be Failed");
  Alcotest.(check int) "1 + 2 retries attempts" 3 (Atomic.get attempts);
  Sch.shutdown s

(* The deadline is fixed at the FIRST attempt's start: a raising job
   cannot buy itself unbounded time through its retry budget. *)
let test_retry_respects_deadline () =
  let s = Sch.create ~backoff:0.02 ~workers:1 ~capacity:4 () in
  let attempts = Atomic.make 0 in
  let t =
    ok
      (Sch.submit s ~timeout:0.05 ~retries:1000 (fun ~should_stop:_ ->
           Atomic.incr attempts;
           Unix.sleepf 0.02;
           failwith "flaky"))
  in
  (match Sch.await s t with
   | Sch.Timed_out | Sch.Failed _ -> ()
   | _ -> Alcotest.fail "job past its deadline must not keep retrying");
  Alcotest.(check bool)
    (Printf.sprintf "deadline bounded the retries (%d attempts)" (Atomic.get attempts))
    true
    (Atomic.get attempts < 10);
  Sch.shutdown s

let test_shed_lower () =
  let reg = Obs.Registry.create () in
  let s = Sch.create ~metrics:reg ~workers:1 ~capacity:2 () in
  let gate = Atomic.make false in
  let blocker ~should_stop:_ =
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    0
  in
  let t_run = ok (Sch.submit s blocker) in
  let rec wait_running n =
    if (Sch.stats s).Sch.running = 1 then ()
    else if n = 0 then Alcotest.fail "blocker never started"
    else (Unix.sleepf 0.002; wait_running (n - 1))
  in
  wait_running 2000;
  let t_low = ok (Sch.submit s ~priority:0 (fun ~should_stop:_ -> 1)) in
  let t_mid = ok (Sch.submit s ~priority:1 (fun ~should_stop:_ -> 2)) in
  (match Sch.submit s (fun ~should_stop:_ -> 3) with
   | Error `Queue_full -> ()
   | _ -> Alcotest.fail "queue must be full");
  (* shedding picks the LOWEST priority strictly below the bar *)
  Alcotest.(check bool) "shed makes room" true (Sch.shed_lower s ~priority:2);
  (match Sch.await s t_low with
   | Sch.Shed -> ()
   | _ -> Alcotest.fail "lowest-priority job must be the one shed");
  let t_new = ok (Sch.submit s ~priority:2 (fun ~should_stop:_ -> 4)) in
  (* nothing strictly below priority 0 remains *)
  Alcotest.(check bool) "no victim below lowest" false (Sch.shed_lower s ~priority:0);
  Atomic.set gate true;
  (match Sch.await s t_run, Sch.await s t_mid, Sch.await s t_new with
   | Sch.Done 0, Sch.Done 2, Sch.Done 4 -> ()
   | _ -> Alcotest.fail "surviving jobs must complete");
  Alcotest.(check int) "shed counted" 1 (Sch.stats s).Sch.shed;
  Alcotest.(check int) "shed outcome metric" 1
    (Obs.Metric.Counter.get
       (Obs.Registry.counter reg ~labels:[ ("outcome", "shed") ]
          "small_sched_jobs_total"));
  Sch.shutdown s

(* ---- service: wire garbage, overload ladder, storm ---- *)

let synth_capture = lazy (Trace.Synth.generate { Trace.Synth.default with length = 2000 })

let saved_trace = lazy (
  let path = Filename.temp_file "faultsynth" ".smtb" in
  Trace.Io.save ~format:Trace.Io.Binary path (Lazy.force synth_capture);
  path)

let sim_job ?(priority = 0) seed =
  { Server.Job.source = Server.Job.Trace_file (Lazy.force saved_trace);
    spec =
      Server.Job.Simulate { Core.Simulator.default_config with table_size = 64; seed };
    timeout = None; priority; deadline = None; wire_id = None }

let test_wire_garbage_never_escapes () =
  let plan = P.create { P.default with seed = 17; garbage = 1.0 } in
  let svc = Server.Service.create ~fault:plan ~workers:1 ~queue_capacity:8 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let request = Sexp.to_string (Server.Job.to_sexp (sim_job 1)) in
  let oversize_seen = ref false in
  for _ = 1 to 40 do
    (* every line is garbled (truncated, byte-flipped, or oversized);
       each must yield exactly one well-formed response line *)
    match Server.Service.handle_line svc request with
    | [ resp ] ->
      Alcotest.(check bool) "response is a status line" true
        (contains resp "\"status\":");
      if contains resp "request too large" then oversize_seen := true
    | other ->
      Alcotest.failf "expected one response line, got %d" (List.length other)
  done;
  Alcotest.(check bool) "the oversize arm was exercised" true !oversize_seen;
  let counts = P.counts plan in
  Alcotest.(check int) "every line drew a garbage fault" 40
    (List.assoc "garbage" counts)

let test_overload_ladder () =
  (* delay 1.0 keeps the single worker busy long enough to fill the queue *)
  let plan = P.create { P.default with seed = 3; delay = 1.0; delay_s = 0.5 } in
  let svc = Server.Service.create ~fault:plan ~workers:1 ~queue_capacity:1 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let join_a = ok (Server.Service.submit svc (sim_job ~priority:0 1)) in
  (* give the worker a moment to pop job A, leaving the queue empty *)
  let rec wait_started n =
    if (Server.Service.scheduler_stats svc).Sch.running = 1 then ()
    else if n = 0 then Alcotest.fail "first job never started"
    else (Unix.sleepf 0.002; wait_started (n - 1))
  in
  wait_started 2000;
  let join_b = ok (Server.Service.submit svc (sim_job ~priority:0 2)) in
  (* rung 1: a higher-priority job sheds the queued lower one *)
  let join_c = ok (Server.Service.submit svc (sim_job ~priority:1 3)) in
  (match (join_b ()).Server.Service.outcome with
   | Error Server.Service.Shed -> ()
   | _ -> Alcotest.fail "queued low-priority job must be shed");
  (* rung 2: nothing lower-priority queued -> (overloaded) *)
  (match Server.Service.submit svc (sim_job ~priority:0 4) with
   | Error `Overloaded -> ()
   | Error `Shutdown -> Alcotest.fail "not shutting down"
   | Ok _ -> Alcotest.fail "equal-priority submit must be overloaded");
  (match (join_a ()).Server.Service.outcome, (join_c ()).Server.Service.outcome with
   | Ok _, Ok _ -> ()
   | _ -> Alcotest.fail "running and high-priority jobs must complete");
  let s = Server.Service.scheduler_stats svc in
  Alcotest.(check int) "one job shed" 1 s.Sch.shed;
  let shed_status =
    Obs.Metric.Counter.get
      (Obs.Registry.counter (Server.Service.metrics svc)
         ~labels:[ ("status", "shed") ] "small_svc_requests_total")
  in
  Alcotest.(check int) "shed status counted" 1 shed_status

(* The acceptance storm: 60 mixed jobs through a service under a seeded
   plan injecting fs-write failures, torn writes, worker crashes, and
   delays.  Every job must come back with either a result byte-identical
   to the fault-free run or a typed error; the pool must survive; and a
   later fault-free service over the same store directory must never
   serve a corrupt entry. *)
let storm_seeds = List.init 60 (fun i -> i + 1)

let reference_results = lazy (
  let svc = Server.Service.create ~workers:4 ~queue_capacity:128 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let joins =
    List.map (fun seed -> (seed, ok (Server.Service.submit svc (sim_job seed))))
      storm_seeds
  in
  List.map
    (fun (seed, join) ->
       match (join ()).Server.Service.outcome with
       | Ok out -> (seed, Server.Json.to_string (Server.Exec.output_to_json out))
       | Error _ -> Alcotest.fail "fault-free reference job failed")
    joins)

let storm_plan () =
  P.create
    { P.default with
      seed = 2718; write_fail = 0.15; torn_write = 0.1; crash = 0.2; delay = 0.1;
      delay_s = 0.002 }

let run_storm svc =
  let reference = Lazy.force reference_results in
  let joins =
    List.map (fun seed -> (seed, ok (Server.Service.submit svc (sim_job seed))))
      storm_seeds
  in
  let oks = ref 0 and errors = ref 0 in
  List.iter
    (fun (seed, join) ->
       match (join ()).Server.Service.outcome with
       | Ok out ->
         incr oks;
         Alcotest.(check string)
           (Printf.sprintf "seed %d result identical to fault-free run" seed)
           (List.assoc seed reference)
           (Server.Json.to_string (Server.Exec.output_to_json out))
       | Error
           ( Server.Service.Exec_failed _ | Server.Service.Timed_out
           | Server.Service.Cancelled | Server.Service.Shed
           | Server.Service.Source_error _ ) -> incr errors)
    joins;
  (!oks, !errors)

let test_storm_under_faults () =
  let dir = temp_dir "faultstorm" in
  let plan = storm_plan () in
  let svc =
    Server.Service.create ~store_dir:dir ~fault:plan ~retries:3 ~workers:4
      ~queue_capacity:128 ()
  in
  let oks, errors =
    Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
    let r = run_storm svc in
    (* the pool survived: a fresh job still completes *)
    (match (ok (Server.Service.submit svc (sim_job 999)) ()).Server.Service.outcome with
     | Ok _ | Error _ -> ());
    Alcotest.(check int) "no stuck jobs" 0
      (Server.Service.scheduler_stats svc).Sch.running;
    Alcotest.(check bool) "faults were actually injected" true (P.total plan > 0);
    Alcotest.(check bool) "crashes forced retries" true
      ((Server.Service.scheduler_stats svc).Sch.retried > 0);
    r
  in
  Alcotest.(check int) "every job answered" 60 (oks + errors);
  (* retry budget 3 vs crash rate 0.2: near-certain full success; leave
     slack for the rare exhausted budget rather than flake *)
  Alcotest.(check bool)
    (Printf.sprintf "almost all jobs recovered (%d ok, %d typed errors)" oks errors)
    true (oks >= 55);
  (* a fault-free service over the same (possibly damaged) store must
     recompute torn or lost entries, never serve them *)
  let svc2 = Server.Service.create ~store_dir:dir ~workers:4 ~queue_capacity:128 () in
  let oks2, errors2 =
    Fun.protect ~finally:(fun () -> Server.Service.shutdown svc2) @@ fun () ->
    run_storm svc2
  in
  Alcotest.(check int) "clean pass over damaged cache: all ok" 60 oks2;
  Alcotest.(check int) "clean pass over damaged cache: no errors" 0 errors2

(* With one worker the whole execution is sequential, so the injection
   schedule maps to jobs identically across runs: the per-kind counts
   must reproduce exactly from the seed. *)
let test_storm_schedule_reproducible () =
  let one_run () =
    let plan = storm_plan () in
    let svc = Server.Service.create ~fault:plan ~retries:3 ~workers:1 ~queue_capacity:128 () in
    Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
    let joins =
      List.map (fun seed -> ok (Server.Service.submit svc (sim_job seed)))
        (List.init 20 (fun i -> i + 1))
    in
    List.iter (fun join -> ignore (join () : Server.Service.response)) joins;
    P.counts plan
  in
  Alcotest.(check (list (pair string int))) "same seed, same injected schedule"
    (one_run ()) (one_run ())

let () =
  Alcotest.run "fault"
    [ ("plan",
       [ Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
         Alcotest.test_case "rates" `Quick test_plan_rates;
         Alcotest.test_case "validation" `Quick test_plan_validation;
         Alcotest.test_case "plan files" `Quick test_plan_file_roundtrip ]);
      ("scheduler",
       [ Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
         Alcotest.test_case "retry budget" `Quick test_retry_budget_exhausted;
         Alcotest.test_case "retry deadline" `Quick test_retry_respects_deadline;
         Alcotest.test_case "shed lower" `Quick test_shed_lower ]);
      ("service",
       [ Alcotest.test_case "wire garbage" `Quick test_wire_garbage_never_escapes;
         Alcotest.test_case "overload ladder" `Quick test_overload_ladder;
         Alcotest.test_case "storm under faults" `Slow test_storm_under_faults;
         Alcotest.test_case "reproducible schedule" `Slow test_storm_schedule_reproducible ]) ]
