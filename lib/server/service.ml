module Core = Service_core

type response = Core.response = {
  job : Job.t;
  cached : bool;
  elapsed : float;
  outcome : (Exec.output, Core.failure) result;
}

type session = {
  outbox : (string list * Core.reply list) Queue.t;   (* replies released, not yet taken *)
  cv : Condition.t;               (* the outbox grew, a write ended, or reading ended *)
  mutable writing : bool;         (* someone holds the writer's role *)
}

type t = {
  core : Core.t;
  m : Mutex.t;                    (* the core and every table below *)
  work : Condition.t;             (* a run was filed, or shutdown *)
  runs : Core.attempt Queue.t;    (* filed for the workers *)
  stops : (string, bool Atomic.t) Hashtbl.t;   (* running key -> its stop flag *)
  sessions : (int, session) Hashtbl.t;
  mutable next_id : int;
  mutable domains : unit Domain.t list;
  joined : bool Atomic.t;         (* a shutdown has joined the domains *)
  result_cache : Result_cache.t;
  fault : Fault.Plan.t option;
  max_request_bytes : int;
  metrics : Obs.Registry.t;
  metrics_file : string option;
  queue_wait : Obs.Metric.Histogram.t;
  run_time : Obs.Metric.Histogram.t;
  mirror : Core.stats -> unit;    (* the core's counters into small_sched_*, the form memo's *)
  observe : Core.reply -> unit;   (* each answer into small_svc_* *)
}

let clock = Unix.gettimeofday
let cache t = t.result_cache
let metrics t = t.metrics
let scheduler_stats t = Mutex.protect t.m (fun () -> Core.stats t.core)
let write_metrics_file t = Option.iter (Obs.Expo.write_file t.metrics) t.metrics_file
let response_json t r = Core.response_json t.core r

(* The stamp comes first: a rewrite after it, even one before the hash,
   fails the job instead of caching new bytes' result under the old
   key.  A budget spent upstream is not worth hashing for. *)
let source (job : Job.t) =
  match job.deadline with
  | Some d when d <= 0. -> Core.Spent
  | _ ->
    try
      let expect = Exec.source_stamp job.source in
      let trace_digest = Exec.trace_digest job.source in
      Core.Keyed { key = Result_cache.key ~trace_digest ~job_digest:(Job.digest job); expect }
    with e -> Core.Unreadable (Printexc.to_string e)

(* ---- stepping the core ---- *)

(* The [(stats)] reply: rendered under the lock when its turn to be
   written comes, so it counts every job answered before it. *)
let stats_json_of t (s : Core.stats) =
  let c = Result_cache.stats t.result_cache in
  Json.Obj
    ([ ("status", Json.Str "ok") ]
     @ Core.shard_field t.core
     @ [ ("jobs_executed", Json.Int s.executed);
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
         [ ("queued", Json.Int s.queued);
           ("running", Json.Int s.running);
           ("completed", Json.Int s.completed);
           ("rejected", Json.Int s.rejected);
           ("cancelled", Json.Int s.cancelled);
           ("timed_out", Json.Int s.timed_out);
           ("shed", Json.Int s.shed);
           ("retried", Json.Int s.retried) ]);
      ("metrics", Obs_json.registry_json t.metrics) ])

let stats_json t = Mutex.protect t.m (fun () -> stats_json_of t (Core.stats t.core))

(* A reader holding its session's writer role writes this itself: no wake-up. *)
let post t sid out =
  Option.iter
    (fun s ->
       Queue.push out s.outbox;
       if not s.writing then Condition.broadcast s.cv)
    (Hashtbl.find_opt t.sessions sid)

(* What needs no waiting is filed under the lock — runs for the workers,
   stop flags, session replies, metrics; lookups and stores are done
   after unlocking, each stepping its answer back in. *)
let file t io (a : Core.action) =
  match a with
  | Run r ->
    Hashtbl.replace t.stops r.key (Atomic.make false);
    Queue.push r t.runs;
    Condition.signal t.work;
    io
  | Stop key -> Option.iter (fun f -> Atomic.set f true) (Hashtbl.find_opt t.stops key); io
  | Write { session; lines; replies } ->
    List.iter t.observe replies;
    post t session (lines, replies);
    io
  | Write_stats session ->
    post t session ([ Json.to_string (stats_json_of t (Core.stats t.core)) ], []);
    io
  | Lookup _ | Store _ -> a :: io

let rec step t (input : Core.input) =
  Mutex.lock t.m;
  (match input with Finished { key; _ } -> Hashtbl.remove t.stops key | _ -> ());
  let io = List.fold_left (file t) [] (Core.step t.core input) in
  t.mirror (Core.stats t.core);
  if Core.drained t.core then Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter
    (function
      | Core.Lookup { waiter; key } ->
        let stored = Result_cache.find t.result_cache key in
        step t (Looked_up { waiter; stored; now = clock () })
      | Store { key; out } ->
        (* the memory entry is in first: a raising write costs persistence, not the worker *)
        (try Result_cache.store t.result_cache key (Sexp.to_string (Exec.output_to_sexp out))
         with _ -> ());
        step t (Stored { key; now = clock () })
      | _ -> ())
    (List.rev io)

(* ---- workers and the ticker ---- *)

(* An injected fault hits each attempt: a crashed attempt that the core
   retries draws again, so a retry can genuinely recover. *)
let execute t (r : Core.attempt) stop =
  match
    (match Option.bind t.fault (fun p -> Fault.Plan.on_job p ~site:"sched.job") with
     | Some Fault.Plan.Crash -> raise (Fault.Plan.Injected_crash "sched.job")
     | Some (Fault.Plan.Delay s) -> Unix.sleepf s
     | None -> ());
    Exec.run ~should_stop:(fun () -> Atomic.get stop) ~expect:r.expect r.job
  with
  | out -> Core.Done out
  | exception _ when Atomic.get stop -> Core.Stopped
  | exception (Exec.Source_changed _ as e) -> Core.Changed (Printexc.to_string e)
  | exception e -> Core.Raised (Printexc.to_string e)

let rec worker t =
  let next =
    Mutex.protect t.m (fun () ->
        while Queue.is_empty t.runs && not (Core.drained t.core) do
          Condition.wait t.work t.m
        done;
        Option.map
          (fun (r : Core.attempt) -> (r, Hashtbl.find t.stops r.key))
          (Queue.take_opt t.runs))
  in
  match next with
  | None -> ()
  | Some (r, stop) ->
    Obs.Metric.Histogram.record t.queue_wait (Float.max 0. (clock () -. r.queued_at));
    let span = Obs.Span.start () in
    let finish = execute t r stop in
    Obs.Span.finish span t.run_time;
    step t (Finished { key = r.key; finish; now = clock () });
    worker t

(* Deadlines and retry backoffs need the clock to move the core: the
   ticker steps [Tick] every few milliseconds, until a shutdown leaves
   nothing waiting. *)
let rec ticker t =
  Unix.sleepf 0.005;
  step t (Tick (clock ()));
  if not (Mutex.protect t.m (fun () -> Core.drained t.core)) then ticker t

let create ?metrics_file ?fault ?shard_id ?(retries = 0)
    ?(max_request_bytes = 1 lsl 20) ?store_dir ?jitter_seed ~workers ~queue_capacity () =
  if retries < 0 then invalid_arg "Service.create: retries < 0";
  if max_request_bytes < 1 then invalid_arg "Service.create: max_request_bytes < 1";
  if queue_capacity < 1 then invalid_arg "Service.create: queue_capacity < 1";
  let metrics = Obs.Registry.create () in
  Option.iter (fun p -> Fault.Plan.attach p metrics) fault;
  let counter ?(labels = []) help name = Obs.Registry.counter metrics ~help ~labels name in
  let jobs o =
    counter ~labels:[ ("outcome", o) ] "finalised jobs by outcome" "small_sched_jobs_total"
  in
  let req s =
    counter ~labels:[ ("status", s) ] "job requests answered, by status"
      "small_svc_requests_total"
  in
  let gauge help name = Obs.Registry.gauge metrics ~help name in
  let histogram help name = Obs.Registry.histogram metrics ~help name in
  (* retry jitter defaults to the fault plan's seed, so an injected
     failure schedule replays with the same backoff schedule *)
  let jitter_seed =
    if Option.is_some jitter_seed then jitter_seed
    else Option.map (fun p -> (Fault.Plan.config p).Fault.Plan.seed) fault
  in
  let core =
    Core.create
      { workers; capacity = queue_capacity; retries; backoff = 0.01; jitter_seed; shard_id }
  in
  (* the core's counters, followed by difference after every step *)
  let mirror =
    let last = ref (Core.stats core) in
    let counters =
      [ (jobs "done", fun (s : Core.stats) -> s.done_); (jobs "failed", fun s -> s.failed);
        (jobs "cancelled", fun s -> s.cancelled); (jobs "timed_out", fun s -> s.timed_out);
        (jobs "rejected", fun s -> s.rejected); (jobs "shed", fun s -> s.shed);
        (counter "job attempts retried after a failure" "small_jobs_retried_total",
         fun s -> s.retried);
        (counter "wire (cancel N) requests honoured" "small_svc_cancel_requests_total",
         fun s -> s.cancels) ]
    in
    let depth = gauge "live jobs waiting in the queue" "small_sched_queue_depth"
    and inflight = gauge "jobs running on worker domains" "small_sched_inflight" in
    (* the process-wide trace form memo's, counted from this service's start *)
    let module M = Trace.Preprocess.Memo in
    let form_hits =
      counter "binary trace scans answered by a kept form" "small_trace_form_hits_total"
    and form_misses = counter "binary trace scans run" "small_trace_form_misses_total"
    and form_bytes = gauge "bytes the trace form memo keeps" "small_trace_form_bytes" in
    let last_forms = ref (M.stats Trace.Preprocess.memo) in
    fun (s : Core.stats) ->
      List.iter (fun (c, f) -> Obs.Metric.Counter.add c (f s - f !last)) counters;
      Obs.Metric.Gauge.set depth s.queued;
      Obs.Metric.Gauge.set inflight s.running;
      last := s;
      let f = M.stats Trace.Preprocess.memo in
      Obs.Metric.Counter.add form_hits (f.hits - !last_forms.hits);
      Obs.Metric.Counter.add form_misses (f.misses - !last_forms.misses);
      Obs.Metric.Gauge.set form_bytes f.kept_bytes;
      last_forms := f
  in
  let observe =
    let latency = histogram "seconds from request to response" "small_svc_request_seconds" in
    (* "rejected" is exposed, as ever, and never counted *)
    let reqs =
      List.map (fun s -> (s, req s))
        [ "ok"; "error"; "timeout"; "cancelled"; "shed"; "overloaded"; "rejected" ]
    in
    function
    | Ok r ->
      Obs.Metric.Histogram.record latency r.elapsed;
      Obs.Metric.Counter.incr (List.assoc (Core.status r) reqs)
    | Error `Overloaded -> Obs.Metric.Counter.incr (List.assoc "overloaded" reqs)
    | Error `Shutdown -> ()
  in
  let t =
    { core; m = Mutex.create (); work = Condition.create (); runs = Queue.create ();
      stops = Hashtbl.create 16;
      sessions = Hashtbl.create 16; next_id = 0; domains = []; joined = Atomic.make false;
      result_cache = Result_cache.create ~metrics ?fault ?store_dir ();
      fault; max_request_bytes; metrics; metrics_file;
      queue_wait = histogram "seconds from submit to start" "small_sched_queue_wait_seconds";
      run_time = histogram "seconds from start to finish" "small_sched_run_seconds";
      mirror; observe }
  in
  t.domains <-
    Domain.spawn (fun () -> ticker t)
    :: List.init (max 1 workers) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  step t Shutdown;
  if not (Atomic.exchange t.joined true) then List.iter Domain.join t.domains;
  write_metrics_file t

(* ---- the API and the wire ---- *)

(* One request line, its jobs hashed.  [now] is read first: a deadline
   counts from arrival.  Wire fault injection garbles the line before any
   parsing, so truncated, byte-flipped and oversized lines all exercise
   the input path — each comes back as one typed error line. *)
let parse t line =
  let line = String.trim line in
  if line = "" then `Blank
  else begin
    let now = clock () in
    let line =
      Option.value ~default:line
        (Option.bind t.fault (fun p -> Fault.Plan.on_wire p ~site:"svc.wire" line))
    in
    let request parts = `Request (Core.Parts parts, now) in
    let error msg = Core.Line (Core.error_line t.core msg) in
    let part d =
      match Job.of_sexp d with Ok job -> Core.Job (job, source job) | Error msg -> error msg
    in
    if String.length line > t.max_request_bytes then
      request
        [ error
            (Printf.sprintf "request too large (%d bytes, cap %d)" (String.length line)
               t.max_request_bytes) ]
    else
      match Sexp.parse line with
      | exception Sexp.Reader.Parse_error msg -> request [ error ("parse error: " ^ msg) ]
      | Sexp.Datum.Cons (Sym "stats", Nil) -> `Request (Core.Stats, now)
      | Sexp.Datum.Cons (Sym "ping", Nil) -> request [ Core.Line (Core.pong_line t.core) ]
      | Sexp.Datum.Cons (Sym "ping", Cons (Cons (Sym "id", Cons (Int n, Nil)), Nil)) ->
        request [ Core.Line (Core.pong_line ~id:n t.core) ]
      | Sexp.Datum.Cons (Sym "cancel", Cons (Int n, Nil)) -> `Cancel (n, now)
      | Sexp.Datum.Cons (Sym "batch", rest) when Sexp.Datum.is_list rest ->
        request (List.map part (Sexp.Datum.to_list rest))
      | d -> request [ part d ]
  end

let open_session t =
  let s = { outbox = Queue.create (); cv = Condition.create (); writing = false } in
  Mutex.protect t.m (fun () ->
      t.next_id <- t.next_id + 1;
      Hashtbl.replace t.sessions t.next_id s;
      (t.next_id, s))

(* A session of one request line: [collect] waits for its replies, as
   often as asked. *)
let one_shot t request now =
  let sid, s = open_session t in
  step t (Request { session = sid; request; now });
  (sid, s)

let collect t (sid, s) =
  Mutex.protect t.m (fun () ->
      while Core.owed t.core sid > 0 do Condition.wait s.cv t.m done;
      Hashtbl.remove t.sessions sid);
  List.of_seq (Queue.to_seq s.outbox)

let submit t job =
  let session = one_shot t (Submit (job, source job)) (clock ()) in
  (* a refusal is decided before the step returns; an answer may wait for a worker *)
  match Mutex.protect t.m (fun () -> Queue.peek_opt (snd session).outbox) with
  | Some (_, [ Error e ]) -> ignore (collect t session); Error e
  | _ -> Ok (fun () -> match collect t session with [ (_, [ Ok r ]) ] -> r | _ -> assert false)

let run_job t job = Result.map (fun join -> join ()) (submit t job)

let handle_line t line =
  let replies =
    match parse t line with
    | `Blank -> []
    | `Cancel (id, now) -> step t (Cancel { id; now }); []
    | `Request (request, now) ->
      List.concat_map fst (collect t (one_shot t request now))
  in
  (* refresh the exposition file after every handled request, so an
     external scraper always sees the latest counters *)
  if String.trim line <> "" then write_metrics_file t;
  replies

(* A pipelined session: the reader parses and steps each line as it
   arrives, so control lines ((cancel N), identified pings) act while
   earlier jobs still run; the core releases replies in request order
   and a writer domain writes them.  The reader writes what its own line
   made ready itself, unless the writer is busy, so a hit crosses no
   domain. *)
let serve_channels t ic oc =
  let sid, s = open_session t in
  let write_failed = ref false in
  (* takes the writer's role while the outbox holds replies; [t.m] is
     held on entry and on return.  Replies are still taken after a write
     failure, only not written. *)
  let rec drain () =
    if (not s.writing) && not (Queue.is_empty s.outbox) then begin
      let lines = List.concat_map fst (List.of_seq (Queue.to_seq s.outbox)) in
      Queue.clear s.outbox;
      s.writing <- true;
      Mutex.unlock t.m;
      if not !write_failed then
        (try
           List.iter (fun r -> output_string oc r; output_char oc '\n') lines;
           flush oc
         with Sys_error _ -> write_failed := true);
      write_metrics_file t;
      Mutex.lock t.m;
      s.writing <- false;
      Condition.broadcast s.cv;
      drain ()
    end
  in
  let reading = ref true in
  let writer =
    Domain.spawn (fun () ->
        Mutex.protect t.m (fun () ->
            drain ();
            while
              !reading || s.writing || Core.owed t.core sid > 0
              || not (Queue.is_empty s.outbox)
            do
              Condition.wait s.cv t.m;
              drain ()
            done))
  in
  let quit = ref false in
  (try
     while not !quit do
       let line = input_line ic in
       if String.trim line = "(quit)" then quit := true
       else
         match parse t line with
         | `Blank -> ()
         | `Cancel (id, now) -> step t (Cancel { id; now })
         | `Request (request, now) ->
           let inline =
             Mutex.protect t.m (fun () ->
                 while Core.owed t.core sid + Queue.length s.outbox >= Core.pipeline_depth do
                   Condition.wait s.cv t.m
                 done;
                 let free = not s.writing in
                 if free then s.writing <- true;
                 free)
           in
           step t (Request { session = sid; request; now });
           if inline then
             Mutex.protect t.m (fun () ->
                 s.writing <- false;
                 drain ())
     done
   with End_of_file -> ());
  Mutex.protect t.m (fun () ->
      reading := false;
      Condition.broadcast s.cv);
  Domain.join writer;
  Mutex.protect t.m (fun () -> Hashtbl.remove t.sessions sid);
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
