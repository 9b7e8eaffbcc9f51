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

type config = {
  workers : int;
  capacity : int;
  retries : int;
  backoff : float;
  jitter_seed : int option;
  shard_id : string option;
}

type source =
  | Keyed of { key : string; expect : Trace.Io.stamp option }
  | Unreadable of string
  | Spent

type part = Job of Job.t * source | Line of string
type request = Parts of part list | Stats | Submit of Job.t * source
type attempt = { key : string; job : Job.t; expect : Trace.Io.stamp option; queued_at : float }
type finish = Done of Exec.output | Changed of string | Raised of string | Stopped

type stats = {
  mutable queued : int;
  mutable running : int;
  mutable completed : int;
  mutable rejected : int;
  mutable cancelled : int;
  mutable timed_out : int;
  mutable shed : int;
  mutable retried : int;
  mutable done_ : int;
  mutable failed : int;
  mutable executed : int;
  mutable cancels : int;
}

type reply = (response, [ `Overloaded | `Shutdown ]) result

(* A request line's replies, filled in as its jobs are answered. *)
type slot = { parts : (string * reply option) array; mutable owed : int; is_stats : bool }

(* A session that no one reads ([render] false, an API caller's) gets
   empty lines: its replies are all it is owed. *)
type session = { sid : int; slots : slot Queue.t; render : bool }

type waiter = {
  wjob : Job.t;
  dest : session * slot * int;    (* the part of a line it answers *)
  arrived : float;
  key : string;
  expect : Trace.Io.stamp option;
  mutable deadline : float;       (* absolute; infinity if none *)
  mutable joined : bool;          (* answered from another request's run or the cache *)
  mutable answered : bool;
  mutable run : run option;
}

and state = Queued | Running | Backoff of float | Storing of Exec.output * string Lazy.t

and run = {
  mutable attempt : attempt;      (* the first waiter's job: every waiter's key is the same *)
  mutable waiters : waiter list;  (* newest first *)
  mutable state : state;
  mutable priority : int;         (* the highest of its waiters' *)
  mutable started : bool;         (* timeouts are fixed at the first start *)
  mutable attempts : int;         (* failed attempts so far *)
  mutable last_backoff : float;
  mutable stop : (waiter * failure) option;   (* the last waiter left while it ran *)
}

and input =
  | Request of { session : int; request : request; now : float }
  | Looked_up of { waiter : waiter; stored : string option; now : float }
  | Finished of { key : string; finish : finish; now : float }
  | Stored of { key : string; now : float }
  | Cancel of { id : int; now : float }
  | Tick of float
  | Shutdown

and action =
  | Lookup of { waiter : waiter; key : string }
  | Run of attempt
  | Stop of string
  | Store of { key : string; out : Exec.output }
  | Write of { session : int; lines : string list; replies : reply list }
  | Write_stats of int

type t = {
  cfg : config;
  jitter : Util.Rng.t option;
  mutable queue : run list;           (* FIFO, oldest first *)
  runs : (string, run) Hashtbl.t;     (* key -> its one run, queued to stored *)
  ids : (int, waiter) Hashtbl.t;      (* wire id -> the waiter it cancels *)
  sessions : (int, session) Hashtbl.t;
  hits : (string, string * Exec.output * string) Hashtbl.t;
      (* key -> the stored string last decoded, its output and JSON *)
  mutable closed : bool;
  c : stats;
  mutable out : action list;          (* this step's actions, newest first *)
}

let pipeline_depth = 128

let create cfg =
  { cfg = { cfg with workers = max 1 cfg.workers };
    jitter = Option.map (fun seed -> Util.Rng.create ~seed) cfg.jitter_seed;
    queue = []; runs = Hashtbl.create 64; ids = Hashtbl.create 64;
    sessions = Hashtbl.create 16; hits = Hashtbl.create 64; closed = false;
    c = { queued = 0; running = 0; completed = 0; rejected = 0; cancelled = 0;
          timed_out = 0; shed = 0; retried = 0; done_ = 0; failed = 0; executed = 0;
          cancels = 0 };
    out = [] }

let stats t = { t.c with queued = t.c.queued }
let drained t = t.closed && t.c.queued = 0 && t.c.running = 0

let owed t sid =
  Option.fold ~none:0 ~some:(fun s -> Queue.length s.slots) (Hashtbl.find_opt t.sessions sid)

(* ---- reply lines ---- *)

let shard_field t =
  match t.cfg.shard_id with None -> [] | Some id -> [ ("shard", Json.Str id) ]

(* The id leads the reply so pipelined routers can match it without
   parsing; routers strip it again before clients see the line. *)
let id_field = function None -> [] | Some n -> [ ("id", Json.Int n) ]

let status (r : response) =
  match r.outcome with
  | Ok _ -> "ok"
  | Error (Exec_failed _ | Source_error _) -> "error"
  | Error Timed_out -> "timeout"
  | Error Cancelled -> "cancelled"
  | Error Shed -> "shed"

let response_json ?result t (r : response) =
  let rest =
    match r.outcome with
    | Ok out ->
      [ ("result", match result with Some j -> Json.Raw j | None -> Exec.output_to_json out) ]
    | Error (Exec_failed msg | Source_error msg) -> [ ("error", Json.Str msg) ]
    | Error (Timed_out | Cancelled) -> []
    | Error Shed -> [ ("error", Json.Str "shed under overload") ]
  in
  Json.Obj
    (id_field r.job.wire_id
     @ ("status", Json.Str (status r))
       :: ("job", Json.Str (Job.describe r.job))
       :: ("cached", Json.Bool r.cached)
       :: ("elapsed", Json.Float r.elapsed)
       :: (rest @ shard_field t))

let error_line t msg =
  Json.to_string
    (Json.Obj (("status", Json.Str "error") :: ("error", Json.Str msg) :: shard_field t))

let overloaded_line t (job : Job.t) =
  Json.to_string
    (Json.Obj
       (id_field job.wire_id
        @ ("status", Json.Str "overloaded")
          :: ("job", Json.Str (Job.describe job))
          :: ("error", Json.Str "queue full, nothing lower-priority to shed")
          :: shard_field t))

let pong_line ?id t =
  Json.to_string
    (Json.Obj
       (id_field id @ ("status", Json.Str "ok") :: ("pong", Json.Bool true) :: shard_field t))

(* ---- answering, in session order ---- *)

let emit t a = t.out <- a :: t.out

(* Writes every head-of-line slot that is complete; a session that owes
   nothing is forgotten until its next line. *)
let rec flush t s =
  match Queue.peek_opt s.slots with
  | Some slot when slot.owed = 0 ->
    ignore (Queue.pop s.slots);
    let parts = Array.to_list slot.parts in
    emit t
      (if slot.is_stats then Write_stats s.sid
       else
         Write
           { session = s.sid; lines = List.map fst parts; replies = List.filter_map snd parts });
    flush t s
  | Some _ -> ()
  | None -> Hashtbl.remove t.sessions s.sid

(* [line] renders the reply's line, for a session that is read. *)
let deliver t w reply line =
  if not w.answered then begin
    w.answered <- true;
    Option.iter (Hashtbl.remove t.ids) w.wjob.wire_id;
    let s, slot, i = w.dest in
    slot.parts.(i) <- ((if s.render then line () else ""), Some reply);
    slot.owed <- slot.owed - 1;
    flush t s
  end

let answer ?result ?(cached = false) t w ~now outcome =
  let r = { job = w.wjob; cached = cached || w.joined; elapsed = now -. w.arrived; outcome } in
  deliver t w (Ok r) (fun () ->
      Json.to_string (response_json ?result:(Option.map Lazy.force result) t r))

(* ---- runs ---- *)

(* Every settled run is counted once, by outcome; [None] is done. *)
let count t ending =
  let c = t.c in
  c.completed <- c.completed + 1;
  match ending with
  | None | Some (Source_error _) -> c.done_ <- c.done_ + 1
  | Some (Exec_failed _) -> c.failed <- c.failed + 1
  | Some Cancelled -> c.cancelled <- c.cancelled + 1
  | Some Timed_out -> c.timed_out <- c.timed_out + 1
  | Some Shed -> c.shed <- c.shed + 1

let settle t r ending =
  count t ending;
  Hashtbl.remove t.runs r.attempt.key

let enqueue t r now =
  r.state <- Queued;
  r.attempt <- { r.attempt with queued_at = now };
  t.queue <- t.queue @ [ r ];
  t.c.queued <- t.c.queued + 1

let unqueue t r =
  t.queue <- List.filter (fun x -> x != r) t.queue;
  t.c.queued <- t.c.queued - 1

let start_clock w now =
  Option.iter (fun s -> w.deadline <- Float.min w.deadline (now +. s)) w.wjob.timeout

(* Answers [r]'s waiters whose deadline has passed; [true] if any is left. *)
let expire t r now =
  let late, live = List.partition (fun w -> w.deadline < now) r.waiters in
  r.waiters <- live;
  List.iter (fun w -> answer t w ~now (Error Timed_out)) (List.rev late);
  live <> []

(* [w] stops waiting for [r]: cancelled, or past its deadline.  The last
   waiter to leave ends a queued or backing-off run at once; a running
   one is asked to stop, and [w] is answered when the worker lets go. *)
let leave t r w reason now =
  r.waiters <- List.filter (fun x -> x != w) r.waiters;
  match r.state with
  | Running when r.waiters = [] && Option.is_none r.stop ->
    Option.iter (Hashtbl.remove t.ids) w.wjob.wire_id;   (* answered when the run stops *)
    r.stop <- Some (w, reason);
    emit t (Stop r.attempt.key)
  | Queued | Backoff _ when r.waiters = [] ->
    if r.state = Queued then unqueue t r else t.c.running <- t.c.running - 1;
    answer t w ~now (Error reason);
    settle t r (Some reason)
  | _ -> answer t w ~now (Error reason)

let join r w now =
  w.joined <- true;
  w.run <- Some r;
  if r.started then start_clock w now;
  r.priority <- max r.priority w.wjob.priority;
  r.waiters <- w :: r.waiters

(* Overload relief: the lowest-priority queued run strictly below
   [priority], the oldest among equals, is shed to make room. *)
let shed_lower t priority now =
  let victim =
    List.fold_left
      (fun best r ->
         match best with
         | Some b when b.priority <= r.priority -> best
         | _ when r.priority < priority -> Some r
         | _ -> best)
      None t.queue
  in
  match victim with
  | None -> false
  | Some r ->
    unqueue t r;
    List.iter (fun w -> answer t w ~now (Error Shed)) (List.rev r.waiters);
    settle t r (Some Shed);
    true

(* A miss with no run to join starts one, climbing the overload ladder
   when the queue is full: shed something less important, else refuse. *)
let start_run t w now =
  let r =
    { attempt = { key = w.key; job = w.wjob; expect = w.expect; queued_at = now };
      waiters = [ w ]; state = Queued; priority = w.wjob.priority; started = false;
      attempts = 0; last_backoff = 0.; stop = None }
  in
  w.run <- Some r;
  let refuse e = deliver t w (Error e) (fun () -> overloaded_line t w.wjob) in
  if t.closed then refuse `Shutdown
  else if t.c.queued < t.cfg.capacity || shed_lower t r.priority now then begin
    Hashtbl.replace t.runs r.attempt.key r;
    enqueue t r now
  end
  else begin
    t.c.rejected <- t.c.rejected + 1;
    refuse `Overloaded
  end

let rec dispatch t now =
  if t.c.running < t.cfg.workers then
    match t.queue with
    | [] -> ()
    | r :: _ ->
      unqueue t r;
      (* a run whose every waiter's deadline passed in the queue is
         answered without burning an attempt *)
      if expire t r now then begin
        r.state <- Running;
        t.c.running <- t.c.running + 1;
        if not r.started then begin
          r.started <- true;
          List.iter (fun w -> start_clock w now) r.waiters
        end;
        emit t (Run r.attempt)
      end
      else settle t r (Some Timed_out);
      dispatch t now

(* Decorrelated jitter — uniform in [backoff, 3 * previous], capped at
   64 * backoff — so synchronized failures fan out; without a seed, pure
   exponential backoff. *)
let backoff_delay t r =
  let b = t.cfg.backoff in
  match t.jitter with
  | None -> b *. Float.pow 2. (float_of_int (r.attempts - 1))
  | Some rng ->
    let hi = Float.max b (r.last_backoff *. 3.) in
    let d = Float.min (b *. 64.) (b +. (Util.Rng.float rng *. (hi -. b))) in
    r.last_backoff <- d;
    d

let finished t r finish now =
  t.c.running <- t.c.running - 1;
  let ended = r.stop in
  r.stop <- None;
  Option.iter (fun (w, reason) -> answer t w ~now (Error reason)) ended;
  let answer_all outcome = List.iter (fun w -> answer t w ~now outcome) (List.rev r.waiters) in
  if not (expire t r now) then
    settle t r (Some (match ended with Some (_, reason) -> reason | None -> Timed_out))
  else
    match finish, ended with
    | Done out, _ ->
      let json = lazy (Json.to_string (Exec.output_to_json out)) in
      count t None;
      t.c.executed <- t.c.executed + 1;
      r.state <- Storing (out, json);
      emit t (Store { key = r.attempt.key; out })
    | Changed msg, _ ->
      answer_all (Error (Source_error msg));
      settle t r None
    | (Raised _ | Stopped), Some (_, reason) ->
      (* waiters joined while it was being stopped: it runs again for them *)
      count t (Some reason);
      enqueue t r now
    | Raised _, None when r.attempts < t.cfg.retries ->
      r.attempts <- r.attempts + 1;
      t.c.retried <- t.c.retried + 1;
      t.c.running <- t.c.running + 1;
      r.state <- Backoff (now +. backoff_delay t r)
    | (Raised _ | Stopped), None ->
      let failed = Exec_failed (match finish with Raised msg -> msg | _ -> "stopped") in
      answer_all (Error failed);
      settle t r (Some failed)

(* ---- the step ---- *)

(* A hit decodes its stored string once: while the cache hands back the
   physically same string, the memoised output and its rendering are
   that string's.  A re-stored or reloaded value is a new string, so it
   is decoded afresh; a corrupt one is never memoised.  The memo is
   bounded like the router's owner table: past 4096 keys it starts
   again, which costs one decode per key. *)
let decode t key stored =
  match Hashtbl.find_opt t.hits key with
  | Some (s, out, json) when s == stored -> Ok (out, json)
  | Some _ | None ->
    match Exec.output_of_sexp (Sexp.parse stored) with
    | Error msg | (exception Sexp.Reader.Parse_error msg) -> Error msg
    | Ok out ->
      let json = Json.to_string (Exec.output_to_json out) in
      if Hashtbl.length t.hits >= 4096 then Hashtbl.reset t.hits;
      Hashtbl.replace t.hits key (stored, out, json);
      Ok (out, json)

(* A run's waiters are answered once its result is cached: a reply proves a hit. *)
let stored t key now =
  match Hashtbl.find_opt t.runs key with
  | Some ({ state = Storing (out, json); _ } as r) ->
    ignore (expire t r now);
    List.iter (fun w -> answer ~result:json t w ~now (Ok out)) (List.rev r.waiters);
    Hashtbl.remove t.runs key
  | _ -> ()

let admit t dest (job : Job.t) source now =
  let w key expect =
    { wjob = job; dest; arrived = now; key; expect;
      deadline = (match job.deadline with Some d -> now +. d | None -> infinity);
      joined = false; answered = false; run = None }
  in
  match source with
  | Spent -> answer t (w "" None) ~now (Error Timed_out)
  | Unreadable msg -> answer t (w "" None) ~now (Error (Source_error msg))
  | Keyed { key; expect } ->
    let w = w key expect in
    Option.iter (fun id -> Hashtbl.replace t.ids id w) job.wire_id;
    (match Hashtbl.find_opt t.runs key with
     | Some r -> join r w now
     | None -> emit t (Lookup { waiter = w; key }))

let request t sid request now =
  let s =
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> s
    | None ->
      let render = match request with Submit _ -> false | Parts _ | Stats -> true in
      let s = { sid; slots = Queue.create (); render } in
      Hashtbl.replace t.sessions sid s;
      s
  in
  let parts, is_stats =
    match request with
    | Parts ps -> (ps, false)
    | Stats -> ([], true)
    | Submit (job, source) -> ([ Job (job, source) ], false)
  in
  let slot =
    { parts = Array.make (List.length parts) ("", None);
      owed = List.length (List.filter (function Job _ -> true | Line _ -> false) parts);
      is_stats }
  in
  Queue.push slot s.slots;
  List.iteri
    (fun i -> function
       | Line l -> slot.parts.(i) <- (l, None)
       | Job (job, source) -> admit t (s, slot, i) job source now)
    parts;
  flush t s

(* Finished backoffs requeue at the tail; waiters past their deadline leave. *)
let tick t now =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.runs []
  |> List.iter (fun r ->
      (match r.state with
       | Backoff at when at <= now ->
         t.c.running <- t.c.running - 1;
         enqueue t r now
       | _ -> ());
      List.rev r.waiters
      |> List.iter (fun w -> if w.deadline < now then leave t r w Timed_out now))

let step t input =
  (match input with
   | Request { session; request = rq; now } -> request t session rq now; dispatch t now
   | Looked_up { waiter = w; stored; now } ->
     (if not w.answered then
        match Option.map (decode t w.key) stored with
        | Some (Ok (out, json)) ->
          answer ~result:(Lazy.from_val json) ~cached:true t w ~now (Ok out)
        | Some (Error msg) ->
          answer ~cached:true t w ~now (Error (Exec_failed ("corrupt cache entry: " ^ msg)))
        | None ->
          match Hashtbl.find_opt t.runs w.key with
          | Some r -> join r w now
          | None -> start_run t w now);
     dispatch t now
   | Finished { key; finish; now } ->
     Option.iter (fun r -> finished t r finish now) (Hashtbl.find_opt t.runs key);
     dispatch t now
   | Stored { key; now } -> stored t key now
   | Cancel { id; now } ->
     (match Hashtbl.find_opt t.ids id with
      | Some w when not w.answered ->
        t.c.cancels <- t.c.cancels + 1;
        (match w.run with
         | Some r -> leave t r w Cancelled now
         | None -> answer t w ~now (Error Cancelled))
      | _ -> ());
     dispatch t now
   | Tick now -> tick t now; dispatch t now
   | Shutdown -> t.closed <- true);
  let actions = List.rev t.out in
  t.out <- [];
  actions
