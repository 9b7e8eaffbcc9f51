type failure =
  | Exec_failed of string
  | Timed_out
  | Cancelled
  | Shed
  | Source_error of string

type response = {
  job : Job.t;
  cached : bool;
  elapsed : float;
  outcome : (Exec.output, failure) result;
}

(* A decoded cache hit: the stored string it came from, the output, and
   that output's rendered [result] JSON. *)
type hit = { stored : string; out : Exec.output; json : string }

type t = {
  scheduler : (Exec.output, string) result Scheduler.t;
                                    (* Error: the trace changed after hashing *)
  result_cache : Result_cache.t;
  fault : Fault.Plan.t option;
  retries : int;
  max_request_bytes : int;
  metrics : Obs.Registry.t;
  req_latency : Obs.Metric.Histogram.t;
  req_ok : Obs.Metric.Counter.t;        (* small_svc_requests_total family *)
  req_error : Obs.Metric.Counter.t;
  req_timeout : Obs.Metric.Counter.t;
  req_cancelled : Obs.Metric.Counter.t;
  req_rejected : Obs.Metric.Counter.t;
  req_overloaded : Obs.Metric.Counter.t;
  req_shed : Obs.Metric.Counter.t;
  cancels : Obs.Metric.Counter.t;
  metrics_file : string option;
  shard_id : string option;         (* announced in every reply when set *)
  lock : Mutex.t;
  inflight_ids : (int, unit -> bool) Hashtbl.t;
                                    (* wire id -> cancel thunk, while running *)
  hits : (string, hit) Hashtbl.t;   (* result-cache key -> its last decoded hit *)
  mutable jobs_executed : int;      (* cache misses actually run *)
}

let create ?metrics_file ?fault ?shard_id ?(retries = 0)
    ?(max_request_bytes = 1 lsl 20) ?store_dir ?jitter_seed ~workers ~queue_capacity () =
  if retries < 0 then invalid_arg "Service.create: retries < 0";
  if max_request_bytes < 1 then invalid_arg "Service.create: max_request_bytes < 1";
  let metrics = Obs.Registry.create () in
  Option.iter (fun p -> Fault.Plan.attach p metrics) fault;
  let req status =
    Obs.Registry.counter metrics ~help:"job requests answered, by status"
      ~labels:[ ("status", status) ] "small_svc_requests_total"
  in
  (* retry jitter defaults to the fault plan's seed, so an injected
     failure schedule replays with the same backoff schedule *)
  let jitter_seed =
    match jitter_seed with
    | Some _ -> jitter_seed
    | None -> Option.map (fun p -> (Fault.Plan.config p).Fault.Plan.seed) fault
  in
  { scheduler =
      Scheduler.create ~metrics ?jitter_seed ~workers ~capacity:queue_capacity ();
    result_cache = Result_cache.create ~metrics ?fault ?store_dir ();
    fault; retries; max_request_bytes;
    metrics;
    req_latency =
      Obs.Registry.histogram metrics ~help:"seconds from request to response"
        "small_svc_request_seconds";
    req_ok = req "ok"; req_error = req "error"; req_timeout = req "timeout";
    req_cancelled = req "cancelled"; req_rejected = req "rejected";
    req_overloaded = req "overloaded"; req_shed = req "shed";
    cancels =
      Obs.Registry.counter metrics ~help:"wire (cancel N) requests honoured"
        "small_svc_cancel_requests_total";
    metrics_file; shard_id;
    lock = Mutex.create (); inflight_ids = Hashtbl.create 64;
    hits = Hashtbl.create 64; jobs_executed = 0 }

let cache t = t.result_cache
let metrics t = t.metrics
let metrics_text t = Obs.Expo.of_registry t.metrics
let scheduler_stats t = Scheduler.stats t.scheduler

(* Exposition written atomically (temp + rename), so a scraper never
   reads a half-written file. *)
let write_metrics_file t =
  match t.metrics_file with
  | None -> ()
  | Some path ->
    let text = metrics_text t in
    let dir = Filename.dirname path in
    (try
       let tmp = Filename.temp_file ~temp_dir:dir "metrics" ".tmp" in
       (try
          let oc = open_out_bin tmp in
          Fun.protect ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc text);
          Sys.rename tmp path
        with e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          raise e)
     with Sys_error _ | Unix.Unix_error _ -> ())

let shutdown t =
  Scheduler.shutdown t.scheduler;
  write_metrics_file t

(* Every answered job request lands here exactly once. *)
let observe_response t (r : response) =
  Obs.Metric.Histogram.record t.req_latency r.elapsed;
  Obs.Metric.Counter.incr
    (match r.outcome with
     | Ok _ -> t.req_ok
     | Error (Exec_failed _ | Source_error _) -> t.req_error
     | Error Timed_out -> t.req_timeout
     | Error Cancelled -> t.req_cancelled
     | Error Shed -> t.req_shed);
  r

(* ---- the cache-aware submit path ---- *)

(* An injected fault hits each ATTEMPT: a crashed thunk that the
   scheduler retries draws again, so a retry can genuinely recover.  A
   trace file that changed after it was hashed is not retried: the
   job's key names bytes that are gone. *)
let wrap_thunk t job ~expect ~should_stop =
  (match Option.bind t.fault (fun p -> Fault.Plan.on_job p ~site:"sched.job") with
   | Some Fault.Plan.Crash -> raise (Fault.Plan.Injected_crash "sched.job")
   | Some (Fault.Plan.Delay s) -> Unix.sleepf s
   | None -> ());
  match Exec.run ~should_stop ~expect job with
  | out -> Ok out
  | exception (Exec.Source_changed _ as e) -> Error (Printexc.to_string e)

(* Wire-cancel plumbing: while a job with an [(id N)] clause is in the
   scheduler, its id maps to a cancel thunk; a [(cancel N)] line read by
   a pipelined session fires it, freeing the worker domain. *)
let register_cancel t id cancel =
  Mutex.lock t.lock;
  Hashtbl.replace t.inflight_ids id cancel;
  Mutex.unlock t.lock

let unregister_cancel t id =
  Mutex.lock t.lock;
  Hashtbl.remove t.inflight_ids id;
  Mutex.unlock t.lock

let cancel_wire t id =
  Mutex.lock t.lock;
  let cancel = Hashtbl.find_opt t.inflight_ids id in
  Mutex.unlock t.lock;
  match cancel with
  | None -> false
  | Some f ->
    Obs.Metric.Counter.incr t.cancels;
    ignore (f ());
    true

(* The hit memo is bounded like the router's owner table: past the cap
   it starts again, which costs one decode per key. *)
let hits_cap = 4096

(* A hit decodes its stored string once: while [Result_cache.find]
   returns the physically same string, the memoised output and its
   rendering are that string's.  A re-stored or reloaded value is a new
   string, so it is decoded afresh; a corrupt one is never memoised. *)
let decode_hit t key stored =
  Mutex.lock t.lock;
  let memo = Hashtbl.find_opt t.hits key in
  Mutex.unlock t.lock;
  match memo with
  | Some h when h.stored == stored -> Ok h
  | Some _ | None ->
    let corrupt msg = Error (Exec_failed ("corrupt cache entry: " ^ msg)) in
    match Exec.output_of_sexp (Sexp.parse stored) with
    | Error msg -> corrupt msg
    | exception Sexp.Reader.Parse_error msg -> corrupt msg
    | Ok out ->
      let h = { stored; out; json = Json.to_string (Exec.output_to_json out) } in
      Mutex.lock t.lock;
      if Hashtbl.length t.hits >= hits_cap then Hashtbl.reset t.hits;
      Hashtbl.replace t.hits key h;
      Mutex.unlock t.lock;
      Ok h

(* What the wire path needs beyond [submit]'s join: whether the reply is
   [ready] — no worker stands between the request and it (a cache hit,
   a spent deadline, an unreadable source) — and a hit's memoised
   [result] rendering. *)
type ticket = { ready : bool; result_json : string option; join : unit -> response }

let submit_ticket t (job : Job.t) =
  let now () = Unix.gettimeofday () in
  let started = now () in
  let ready ?result_json join = Ok { ready = true; result_json; join } in
  match job.deadline with
  | Some d when d <= 0. ->
    (* the budget was exhausted upstream; answer without queueing *)
    ready (fun () ->
        observe_response t
          { job; cached = false; elapsed = 0.; outcome = Error Timed_out })
  | _ ->
  match
    (* the stamp comes first: a rewrite after it, even one before the
       hash, fails the job instead of caching new bytes' result under
       the old key *)
    let stamp = Exec.source_stamp job.source in
    let trace_digest = Exec.trace_digest job.source in
    (stamp, Result_cache.key ~trace_digest ~job_digest:(Job.digest job))
  with
  | exception e ->
    (* an unreadable source fails without occupying the queue *)
    let failure = Source_error (Printexc.to_string e) in
    ready (fun () ->
        observe_response t
          { job; cached = false; elapsed = 0.; outcome = Error failure })
  | expect, key ->
    match Result_cache.find t.result_cache key with
    | Some stored ->
      let outcome, result_json =
        match decode_hit t key stored with
        | Ok h -> (Ok h.out, Some h.json)
        | Error f -> (Error f, None)
      in
      ready ?result_json (fun () ->
          observe_response t
            { job; cached = true; elapsed = now () -. started; outcome })
    | None ->
      let run = wrap_thunk t job ~expect in
      let deadline = Option.map (fun d -> started +. d) job.deadline in
      let sched_submit () =
        Scheduler.submit t.scheduler ~priority:job.priority ?timeout:job.timeout
          ~retries:t.retries ?deadline run
      in
      (* Overload ladder, rung 1: a full queue first sheds a queued job
         of strictly lower priority to make room; only when nothing can
         be shed does the caller see (overloaded). *)
      let submitted =
        match sched_submit () with
        | Error `Queue_full when Scheduler.shed_lower t.scheduler ~priority:job.priority ->
          sched_submit ()
        | r -> r
      in
      (match submitted with
       | Error `Queue_full ->
         Obs.Metric.Counter.incr t.req_overloaded;
         Error `Overloaded
       | Error `Shutdown -> Error `Shutdown
       | Ok ticket ->
         Option.iter
           (fun id ->
              register_cancel t id (fun () -> Scheduler.cancel t.scheduler ticket))
           job.wire_id;
         let join () =
           let outcome =
             match Scheduler.await t.scheduler ticket with
             | Scheduler.Done (Error msg) -> Error (Source_error msg)
             | Scheduler.Done (Ok out) ->
               Mutex.lock t.lock;
               t.jobs_executed <- t.jobs_executed + 1;
               Mutex.unlock t.lock;
               Result_cache.store t.result_cache key
                 (Sexp.to_string (Exec.output_to_sexp out));
               Ok out
             | Scheduler.Failed msg -> Error (Exec_failed msg)
             | Scheduler.Timed_out -> Error Timed_out
             | Scheduler.Cancelled -> Error Cancelled
             | Scheduler.Shed -> Error Shed
           in
           Option.iter (unregister_cancel t) job.wire_id;
           observe_response t
             { job; cached = false; elapsed = now () -. started; outcome }
         in
         Ok { ready = false; result_json = None; join })

let submit t job = Result.map (fun tk -> tk.join) (submit_ticket t job)

let run_job t job =
  match submit t job with
  | Ok join -> Ok (join ())
  | Error _ as e -> e

(* ---- wire rendering ---- *)

(* When the service runs as a cluster shard, every reply carries its
   shard id so routers and load generators can attribute hits and
   latencies without parsing the result body. *)
let shard_field t =
  match t.shard_id with
  | None -> []
  | Some id -> [ ("shard", Json.Str id) ]

(* The id leads the reply so pipelined routers can match it without
   parsing; routers strip it again before clients see the line, keeping
   routed replies byte-identical to direct ones. *)
let id_field (job : Job.t) =
  match job.wire_id with
  | None -> []
  | Some n -> [ ("id", Json.Int n) ]

(* [result], when given, is the output's already-rendered JSON. *)
let render_response ?result t r =
  let base status rest =
    Json.Obj
      (id_field r.job
       @ ("status", Json.Str status)
         :: ("job", Json.Str (Job.describe r.job))
         :: ("cached", Json.Bool r.cached)
         :: ("elapsed", Json.Float r.elapsed)
         :: (rest @ shard_field t))
  in
  match r.outcome with
  | Ok out ->
    base "ok"
      [ ("result",
         match result with Some j -> Json.Raw j | None -> Exec.output_to_json out) ]
  | Error (Exec_failed msg) -> base "error" [ ("error", Json.Str msg) ]
  | Error (Source_error msg) -> base "error" [ ("error", Json.Str msg) ]
  | Error Timed_out -> base "timeout" []
  | Error Cancelled -> base "cancelled" []
  | Error Shed -> base "shed" [ ("error", Json.Str "shed under overload") ]

let response_json t r = render_response t r

let error_line t msg =
  Json.to_string
    (Json.Obj
       (("status", Json.Str "error") :: ("error", Json.Str msg) :: shard_field t))

let overloaded_line t (job : Job.t) =
  Json.to_string
    (Json.Obj
       (id_field job
        @ ("status", Json.Str "overloaded")
          :: ("job", Json.Str (Job.describe job))
          :: ("error", Json.Str "queue full, nothing lower-priority to shed")
          :: shard_field t))

let pong_line ?id t =
  let id = match id with None -> [] | Some n -> [ ("id", Json.Int n) ] in
  Json.to_string
    (Json.Obj
       (id @ ("status", Json.Str "ok") :: ("pong", Json.Bool true) :: shard_field t))

let stats_json t =
  let c = Result_cache.stats t.result_cache in
  let s = Scheduler.stats t.scheduler in
  Mutex.lock t.lock;
  let executed = t.jobs_executed in
  Mutex.unlock t.lock;
  Json.Obj
    ([ ("status", Json.Str "ok") ]
     @ shard_field t
     @ [ ("jobs_executed", Json.Int executed);
      ("cache",
       Json.Obj
         [ ("hits", Json.Int c.Result_cache.hits);
           ("disk_hits", Json.Int c.Result_cache.disk_hits);
           ("misses", Json.Int c.Result_cache.misses);
           ("stores", Json.Int c.Result_cache.stores);
           ("write_errors", Json.Int c.Result_cache.write_errors);
           ("degraded", Json.Bool c.Result_cache.degraded) ]) ]
     @ (match Result_cache.log_stats t.result_cache with
        | None -> []
        | Some ls ->
          [ ("store",
             Json.Obj
               [ ("segments", Json.Int ls.Store.Log.segments);
                 ("entries", Json.Int ls.Store.Log.entries);
                 ("live_bytes", Json.Int ls.Store.Log.live_bytes);
                 ("dead_bytes", Json.Int ls.Store.Log.dead_bytes);
                 ("appends", Json.Int ls.Store.Log.appends);
                 ("recovered_records", Json.Int ls.Store.Log.recovered_records);
                 ("truncated_records", Json.Int ls.Store.Log.truncated_records);
                 ("corrupt_reads", Json.Int ls.Store.Log.corrupt_reads);
                 ("compactions", Json.Int ls.Store.Log.compactions);
                 ("evictions", Json.Int ls.Store.Log.evictions);
                 ("write_errors", Json.Int ls.Store.Log.write_errors) ]) ])
     @ [
        ("scheduler",
       Json.Obj
         [ ("queued", Json.Int s.Scheduler.queued);
           ("running", Json.Int s.Scheduler.running);
           ("completed", Json.Int s.Scheduler.completed);
           ("rejected", Json.Int s.Scheduler.rejected);
           ("cancelled", Json.Int s.Scheduler.cancelled);
           ("timed_out", Json.Int s.Scheduler.timed_out);
           ("shed", Json.Int s.Scheduler.shed);
           ("retried", Json.Int s.Scheduler.retried) ]);
      ("metrics", Obs_json.registry_json t.metrics) ])

(* A request's replies, behind a thunk that blocks until they exist.
   [ready] replies need no worker, so a session may write them at once
   when no earlier reply is still owed. *)
type replies = { ready : bool; lines : unit -> string list }

let const rs = { ready = true; lines = (fun () -> rs) }

let respond_async t job =
  match submit_ticket t job with
  | Ok { ready; result_json; join } ->
    (ready, fun () -> Json.to_string (render_response ?result:result_json t (join ())))
  | Error (`Overloaded | `Shutdown) -> (true, fun () -> overloaded_line t job)

let handle_batch_async t datums =
  (* submit everything before awaiting anything: the pool runs the batch
     concurrently while responses keep request order *)
  let joins =
    List.map
      (fun d ->
         match Job.of_sexp d with
         | Error msg -> (true, fun () -> error_line t msg)
         | Ok job -> respond_async t job)
      datums
  in
  { ready = List.for_all fst joins;
    lines = (fun () -> List.map (fun (_, join) -> join ()) joins) }

(* Parse and submit now; the returned thunk blocks until the replies are
   ready.  Splitting the two halves is what lets a pipelined session read
   a (cancel N) while the job it targets is still running. *)
let handle_parsed_async t line =
  match Sexp.parse line with
    | exception Sexp.Reader.Parse_error msg ->
      const [ error_line t ("parse error: " ^ msg) ]
    | Sexp.Datum.Cons (Sym "stats", Nil) ->
      (* evaluated in reply order, so a stats line queued after a job
         reports that job as completed, exactly as a serial session did *)
      { ready = false; lines = (fun () -> [ Json.to_string (stats_json t) ]) }
    | Sexp.Datum.Cons (Sym "ping", Nil) ->
      (* the router's health probe: answered without touching the
         scheduler, the cache, or the registry snapshot *)
      const [ pong_line t ]
    | Sexp.Datum.Cons
        (Sym "ping",
         Cons (Cons (Sym "id", Cons (Int n, Nil)), Nil)) ->
      (* an identified ping doubles as a pipeline flush marker: its pong
         proves every earlier request on this session was either
         answered or never arrived *)
      const [ pong_line ~id:n t ]
    | Sexp.Datum.Cons (Sym "cancel", Cons (Int n, Nil)) ->
      (* fire-and-forget: no reply line of its own — the cancelled job
         still answers (status cancelled) in its original slot, so the
         session's reply ordering is undisturbed *)
      ignore (cancel_wire t n);
      const []
    | Sexp.Datum.Cons (Sym "batch", rest) when Sexp.Datum.is_list rest ->
      handle_batch_async t (Sexp.Datum.to_list rest)
    | d ->
      (match Job.of_sexp d with
       | Ok job ->
         let ready, join = respond_async t job in
         { ready; lines = (fun () -> [ join () ]) }
       | Error msg -> const [ error_line t msg ])

let handle_line_replies t line =
  let line = String.trim line in
  if line = "" then const []
  else begin
    (* wire fault injection garbles the request BEFORE any parsing, so
       the whole input path is exercised: truncated and byte-flipped
       lines must come back as one typed error line, oversized ones must
       trip the size cap — never an exception out of the accept loop *)
    let line =
      match Option.bind t.fault (fun p -> Fault.Plan.on_wire p ~site:"svc.wire" line) with
      | Some garbled -> garbled
      | None -> line
    in
    if String.length line > t.max_request_bytes then
      const
        [ error_line t
            (Printf.sprintf "request too large (%d bytes, cap %d)"
               (String.length line) t.max_request_bytes) ]
    else handle_parsed_async t line
  end

let handle_line_async t line = (handle_line_replies t line).lines

let handle_line t line =
  let responses = handle_line_async t line () in
  (* refresh the exposition file after every handled request, so an
     external scraper always sees the latest counters *)
  if String.trim line <> "" then write_metrics_file t;
  responses

(* How many submitted-but-unanswered requests a session may pipeline
   before the reader blocks; bounds memory without stalling routers. *)
let pipeline_depth = 128

let serve_channels t ic oc =
  (* Pipelined session: the reader half parses and submits, a writer
     domain joins tickets and writes replies in request order.  The wire
     contract — one ordered reply stream per session — is unchanged, but
     control lines ((cancel N), identified pings) are now read while
     earlier jobs are still running. *)
  let pending : (unit -> string list) Queue.t = Queue.create () in
  let pm = Mutex.create () in
  let pcv = Condition.create () in
  let done_reading = ref false in
  let writing = ref false in               (* the writer holds a taken join *)
  let write_failed = ref false in
  (* joins still run after a write failure so every scheduler ticket is
     observed; only the writes are skipped *)
  let write replies =
    if not !write_failed then
      (try
         List.iter (fun r -> output_string oc r; output_char oc '\n') replies;
         flush oc
       with Sys_error _ -> write_failed := true);
    write_metrics_file t
  in
  let writer =
    Domain.spawn (fun () ->
        let rec loop () =
          Mutex.lock pm;
          while Queue.is_empty pending && not !done_reading do
            Condition.wait pcv pm
          done;
          match Queue.take_opt pending with
          | None -> Mutex.unlock pm         (* done_reading and drained *)
          | Some join ->
            writing := true;
            Condition.broadcast pcv;        (* reader may be depth-blocked *)
            Mutex.unlock pm;
            write (join ());                (* the join blocks until the job settles *)
            Mutex.lock pm;
            writing := false;
            Mutex.unlock pm;
            loop ()
        in
        loop ())
  in
  let quit = ref false in
  (try
     while not !quit do
       let line = input_line ic in
       if String.trim line = "(quit)" then quit := true
       else begin
         let r = handle_line_replies t line in
         Mutex.lock pm;
         (* a ready reply with nothing owed ahead of it is written here,
            without a hand-off: the writer is idle and only this domain
            queues, so the two never write at once *)
         let inline = r.ready && Queue.is_empty pending && not !writing in
         if not inline then begin
           while Queue.length pending >= pipeline_depth do
             Condition.wait pcv pm
           done;
           Queue.add r.lines pending;
           Condition.broadcast pcv
         end;
         Mutex.unlock pm;
         if inline then write (r.lines ())
       end
     done
   with End_of_file -> ());
  Mutex.lock pm;
  done_reading := true;
  Condition.broadcast pcv;
  Mutex.unlock pm;
  Domain.join writer;
  !quit

(* Bind via a temp name and rename over the target: the path atomically
   flips from the stale socket to the live one, so a restarting shard
   never leaves a window where the path is missing (clients ENOENT) or
   where two distinct endpoints answer (routers double-counting).  A
   killed server leaves its socket file behind, so probe before
   replacing: a connect that succeeds means another server is live
   (refuse to hijack its socket); a refused connect means the file is
   stale.  Anything that is not a socket is left alone. *)
let bind_socket_replacing sock path =
  (match Unix.lstat path with
   | exception Unix.Unix_error (ENOENT, _, _) -> ()
   | { Unix.st_kind; _ } when st_kind <> Unix.S_SOCK ->
     failwith (Printf.sprintf "%s: exists and is not a socket" path)
   | _ ->
     let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let live =
       match Unix.connect fd (Unix.ADDR_UNIX path) with
       | () -> true
       | exception Unix.Unix_error _ -> false
     in
     (try Unix.close fd with Unix.Unix_error _ -> ());
     if live then
       failwith (Printf.sprintf "%s: a server is already listening here" path));
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  (try Unix.unlink tmp with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX tmp);
  match Sys.rename tmp path with
  | () -> ()
  | exception e ->
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    raise e

let serve_socket t ~path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* only unlink what we actually bound: a refused path (regular file, a
     live server) must be left exactly as found *)
  let bound = ref false in
  Fun.protect
    ~finally:(fun () ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        if !bound then try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
       bind_socket_replacing sock path;
       bound := true;
       Unix.listen sock 16;
       let quit = ref false in
       while not !quit do
         let fd, _ = Unix.accept sock in
         let ic = Unix.in_channel_of_descr fd in
         let oc = Unix.out_channel_of_descr fd in
         (match serve_channels t ic oc with
          | q -> quit := q
          | exception Sys_error _ -> ());
         (try flush oc with Sys_error _ -> ());
         try Unix.close fd with Unix.Unix_error _ -> ()
       done)
