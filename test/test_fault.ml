(* Fault-injection tests: deterministic seeded plans, the service
   core's retry/backoff/deadline behaviour and priority shedding, the
   service overload ladder, wire-garbage handling, and the 60-job storm
   acceptance test (every job completes with a fault-free-identical
   result or a typed error; the pool survives; a damaged result store is
   recomputed, never served).  Crash-safety of the store itself is
   tested in test_store. *)

module P = Fault.Plan
module SC = Server.Service_core

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

(* ---- scheduler: retry, deadline, shed, on the service core ---- *)

(* Retry and shedding are decided by [Service_core]: these tests step it
   with a simulated worker and clock, and every cache lookup misses. *)

let core ?(capacity = 4) ?(retries = 0) ?(backoff = 0.01) () =
  SC.create { SC.workers = 1; capacity; retries; backoff; jitter_seed = None; shard_id = None }

let core_job ?timeout ?(priority = 0) n =
  { Server.Job.source = Server.Job.Workload "slang";
    spec = Server.Job.Simulate { Core.Simulator.default_config with seed = n };
    timeout; priority; deadline = None; wire_id = None }

let output_of n =
  Server.Exec.Stats_out
    { events = n; primitives = 0; functions = 0; max_depth = 0; distinct_lists = 0; mix = [] }

let rec drive c ~now input =
  List.concat_map
    (function
      | SC.Lookup { waiter; _ } as a -> a :: drive c ~now (SC.Looked_up { waiter; stored = None; now })
      | SC.Store { key; _ } as a -> a :: drive c ~now (SC.Stored { key; now })
      | a -> [ a ])
    (SC.step c input)

(* Job [n] arrives alone on session [n], under its own key. *)
let submit c ~now ?timeout ?priority n =
  let source = SC.Keyed { key = Printf.sprintf "k%d" n; expect = None } in
  drive c ~now
    (SC.Request
       { session = n; now; request = SC.Parts [ SC.Job (core_job ?timeout ?priority n, source) ] })

let answer_of n acts =
  List.find_map
    (function SC.Write { session; replies = [ r ]; _ } when session = n -> Some r | _ -> None)
    acts

let outcome_of n acts =
  match answer_of n acts with
  | Some (Ok r) -> Some r.SC.outcome
  | Some (Error _) | None -> None

(* Drives job [n] to its answer on one simulated worker: each attempt
   takes [dur] seconds and ends as [attempt i] says (from 1); with no run
   in flight the clock ticks in 1 ms steps, as a shell's ticker would.
   Returns the outcome and the number of attempts. *)
let run_to_answer c n ~dur ~attempt acts =
  let rec go acts now attempts =
    match outcome_of n acts with
    | Some o -> (o, attempts)
    | None ->
      match List.find_map (function SC.Run { key; _ } -> Some key | _ -> None) acts with
      | Some key ->
        let now = now +. dur in
        go (drive c ~now (SC.Finished { key; finish = attempt (attempts + 1); now })) now
          (attempts + 1)
      | None ->
        if now > 60. then Alcotest.fail "the job was never answered";
        let now = now +. 0.001 in
        go (drive c ~now (SC.Tick now)) now attempts
  in
  go acts 0. 0

(* A crash-only plan whose first draws at ["sched.job"] are [pattern]. *)
let crash_plan pattern =
  let cfg seed = { P.default with seed; crash = 0.5 } in
  let draws seed =
    let p = P.create (cfg seed) in
    List.map (fun _ -> P.on_job p ~site:"sched.job") pattern
  in
  P.create (cfg (List.find (fun seed -> draws seed = pattern) (List.init 1000 Fun.id)))

let test_retry_recovers () =
  let c = core ~retries:3 ~backoff:0.001 () in
  let outcome, attempts =
    run_to_answer c 1 ~dur:0.001
      ~attempt:(fun i -> if i <= 2 then SC.Raised "Failure(\"flaky\")" else SC.Done (output_of 7))
      (submit c ~now:0. 1)
  in
  (match outcome with
   | Ok out when out = output_of 7 -> ()
   | _ -> Alcotest.fail "flaky job must succeed within its retry budget");
  Alcotest.(check int) "two retries burned" 2 (SC.stats c).SC.retried;
  Alcotest.(check int) "three attempts run" 3 attempts;
  (* a service retries an injected crash the same way, and counts it *)
  let plan = crash_plan P.[ Some Crash; Some Crash; None ] in
  let svc = Server.Service.create ~fault:plan ~retries:3 ~workers:1 ~queue_capacity:4 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  (match (ok (Server.Service.run_job svc (sim_job 1))).Server.Service.outcome with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "flaky job must succeed within its retry budget");
  Alcotest.(check int) "two crashes injected" 2 (List.assoc "crash" (P.counts plan));
  Alcotest.(check int) "small_jobs_retried_total" 2
    (Obs.Metric.Counter.get
       (Obs.Registry.counter (Server.Service.metrics svc) "small_jobs_retried_total"))

let test_retry_budget_exhausted () =
  let c = core ~retries:2 ~backoff:0.001 () in
  let outcome, attempts =
    run_to_answer c 1 ~dur:0.001 ~attempt:(fun _ -> SC.Raised "Failure(\"always\")")
      (submit c ~now:0. 1)
  in
  (match outcome with
   | Error (SC.Exec_failed msg) ->
     Alcotest.(check bool) "failure text survives retries" true (contains msg "always")
   | _ -> Alcotest.fail "exhausted budget must be Failed");
  Alcotest.(check int) "1 + 2 retries attempts" 3 attempts

(* The deadline is fixed at the FIRST attempt's start: a raising job
   cannot buy itself unbounded time through its retry budget. *)
let test_retry_respects_deadline () =
  let c = core ~retries:1000 ~backoff:0.02 () in
  let outcome, attempts =
    run_to_answer c 1 ~dur:0.02 ~attempt:(fun _ -> SC.Raised "Failure(\"flaky\")")
      (submit c ~now:0. ~timeout:0.05 1)
  in
  (match outcome with
   | Error (SC.Timed_out | SC.Exec_failed _) -> ()
   | _ -> Alcotest.fail "job past its deadline must not keep retrying");
  Alcotest.(check bool)
    (Printf.sprintf "deadline bounded the retries (%d attempts)" attempts)
    true (attempts < 10)

let test_shed_lower () =
  let c = core ~capacity:2 () in
  let run_key acts = List.find_map (function SC.Run { key; _ } -> Some key | _ -> None) acts in
  Alcotest.(check (option string)) "the first job runs" (Some "k1") (run_key (submit c ~now:0. 1));
  ignore (submit c ~now:0. ~priority:0 2);
  ignore (submit c ~now:0. ~priority:1 3);
  (match answer_of 4 (submit c ~now:0. 4) with
   | Some (Error `Overloaded) -> ()
   | _ -> Alcotest.fail "queue must be full");
  (* shedding picks the LOWEST priority strictly below the newcomer's *)
  let acts = submit c ~now:0. ~priority:2 5 in
  (match outcome_of 2 acts with
   | Some (Error SC.Shed) -> ()
   | _ -> Alcotest.fail "lowest-priority job must be the one shed");
  Alcotest.(check bool) "shed makes room" true (answer_of 5 acts = None);
  (* nothing strictly below priority 0 remains *)
  (match answer_of 6 (submit c ~now:0. ~priority:0 6) with
   | Some (Error `Overloaded) -> ()
   | _ -> Alcotest.fail "no victim below lowest");
  let finish n = drive c ~now:1. (SC.Finished { key = Printf.sprintf "k%d" n; finish = SC.Done (output_of n); now = 1. }) in
  let done_ n acts = outcome_of n acts = Some (Ok (output_of n)) in
  let a1 = finish 1 in
  let a3 = finish 3 in
  let a5 = finish 5 in
  if not (done_ 1 a1 && done_ 3 a3 && done_ 5 a5) then
    Alcotest.fail "surviving jobs must complete";
  Alcotest.(check int) "shed counted" 1 (SC.stats c).SC.shed

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
  (* the core hands job A to the worker as it is submitted, leaving the
     queue empty; the fault-plan delay holds it there *)
  Alcotest.(check int) "first job started" 1 (Server.Service.scheduler_stats svc).SC.running;
  let join_b = ok (Server.Service.submit svc (sim_job ~priority:0 2)) in
  (* rung 1: a higher-priority job sheds the queued lower one *)
  let join_c = ok (Server.Service.submit svc (sim_job ~priority:1 3)) in
  (match (join_b ()).Server.Service.outcome with
   | Error Server.Service_core.Shed -> ()
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
  Alcotest.(check int) "one job shed" 1 s.SC.shed;
  let shed_status =
    Obs.Metric.Counter.get
      (Obs.Registry.counter (Server.Service.metrics svc)
         ~labels:[ ("status", "shed") ] "small_svc_requests_total")
  in
  Alcotest.(check int) "shed status counted" 1 shed_status;
  Alcotest.(check int) "shed outcome metric" 1
    (Obs.Metric.Counter.get
       (Obs.Registry.counter (Server.Service.metrics svc) ~labels:[ ("outcome", "shed") ]
          "small_sched_jobs_total"))

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
           ( Server.Service_core.Exec_failed _ | Server.Service_core.Timed_out
           | Server.Service_core.Cancelled | Server.Service_core.Shed
           | Server.Service_core.Source_error _ ) -> incr errors)
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
      (Server.Service.scheduler_stats svc).SC.running;
    Alcotest.(check bool) "faults were actually injected" true (P.total plan > 0);
    Alcotest.(check bool) "crashes forced retries" true
      ((Server.Service.scheduler_stats svc).SC.retried > 0);
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
