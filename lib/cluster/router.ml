(* The router's I/O shell.  Every decision is [Router_core]'s: this module
   owns the connections, the dispatcher and pacer domains, the one router
   lock, the chaos draws and the client wake-ups.  It feeds the core one
   input at a time under [t.m] and performs the actions it returns once
   the lock is released. *)

module Core = Router_core

type endpoint =
  | Spawn of string array
  | Socket of string
  | Channels of in_channel * out_channel

type placement = Core.placement = Cache_aware | Hash_only | Uniform

type conn = {
  ic : in_channel;
  oc : out_channel;
}

type shard = {
  sid : string;
  endpoint : endpoint;
  mutable conn : conn option;
  mutable pid : int option;          (* spawned child, until reaped *)
  wm : Mutex.t;                      (* write-side lock: batch payloads and
                                        control lines ((cancel), sync pings)
                                        interleave whole-line *)
  mutable disp : unit Domain.t option;
  mutable reviving : bool;           (* a revival claim is in progress *)
  mutable partition_until : float;   (* chaos: one-way partition window *)
}

(* One client (or probe) waiting for its item's answer. *)
type waiter = {
  wm_ : Mutex.t;
  wcv : Condition.t;
  mutable reply : string option;
}

type t = {
  core : Core.t;
  shards : shard array;
  fault : Fault.Plan.t option;       (* network/process chaos, seeded *)
  stuck_after : float;
  metrics_file : string option;
  registry : Obs.Registry.t;
  m : Mutex.t;                       (* the router lock: [core], [waiters] *)
  cv : Condition.t;                  (* new work / state change *)
  waiters : (int, waiter) Hashtbl.t; (* wire id -> its client *)
  (* trace-file path -> stamp, digest *)
  digests : (string, Trace.Io.stamp * string) Hashtbl.t;
  dm : Mutex.t;                      (* digest memo lock *)
  mutable stopping : bool;
  pacer_stop : bool Atomic.t;
  mutable pacer : unit Domain.t option;
}

let error_line msg = Core.typed_line "error" msg

let pong_line ?id () =
  let fields =
    [ ("status", Server.Json.Str "ok");
      ("pong", Server.Json.Bool true);
      ("router", Server.Json.Bool true) ]
  in
  let fields =
    match id with
    | Some n -> ("id", Server.Json.Int n) :: fields
    | None -> fields
  in
  Server.Json.to_string (Server.Json.Obj fields)

(* ---- waiters ---- *)

let waiter () = { wm_ = Mutex.create (); wcv = Condition.create (); reply = None }

let fulfill w line =
  Mutex.lock w.wm_;
  w.reply <- Some line;
  Condition.broadcast w.wcv;
  Mutex.unlock w.wm_

let await w =
  Mutex.lock w.wm_;
  while w.reply = None do
    Condition.wait w.wcv w.wm_
  done;
  let r = Option.get w.reply in
  Mutex.unlock w.wm_;
  r

let try_reply w =
  Mutex.lock w.wm_;
  let r = w.reply in
  Mutex.unlock w.wm_;
  r

(* ---- connections ---- *)

let open_endpoint s =
  match s.endpoint with
  | Channels (ic, oc) -> { ic; oc }
  | Socket path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | Spawn argv ->
    (* child stdin/stdout pipes; the parent ends stay close-on-exec so
       sibling shards never hold each other's descriptors open *)
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process argv.(0) argv in_r out_w Unix.stderr in
    Unix.close in_r;
    Unix.close out_w;
    s.pid <- Some pid;
    { ic = Unix.in_channel_of_descr out_r; oc = Unix.out_channel_of_descr in_w }

(* Nudge a shard whose dispatcher may be blocked in [input_line]: for a
   socket (ic and oc share one fd) a shutdown wakes the reader with EOF;
   for pipes/channels, closing our write end EOFs the shard's stdin so
   its serve loop returns and closes the read side.  Never touches [ic]
   — [close_in] from another domain would block on the channel lock the
   reader holds. *)
let nudge_conn s c =
  match s.endpoint with
  | Socket _ ->
    (try Unix.shutdown (Unix.descr_of_out_channel c.oc) Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ | Sys_error _ -> ())
  | Spawn _ | Channels _ -> ( try close_out c.oc with Sys_error _ -> ())

(* Full close, only ever from the shard's own dispatcher (so nobody is
   blocked reading [ic]).  A socket's fd is closed exactly once — via
   [oc] — and [ic] is left to the GC, so a reused fd number can never be
   closed out from under another session. *)
let close_conn s c =
  match s.endpoint with
  | Socket _ ->
    (try Unix.shutdown (Unix.descr_of_out_channel c.oc) Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ | Sys_error _ -> ());
    (try close_out c.oc with Sys_error _ -> ())
  | Spawn _ | Channels _ ->
    (try close_out c.oc with Sys_error _ -> ());
    (try close_in c.ic with Sys_error _ -> ())

let get_conn s =
  match s.conn with
  | Some c -> c
  | None ->
    let c = open_endpoint s in
    s.conn <- Some c;
    c

(* Reap a spawned child: grace for a polite (quit), then SIGKILL. *)
let reap_child s =
  match s.pid with
  | None -> ()
  | Some pid ->
    s.pid <- None;
    let rec wait tries =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if tries <= 0 then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
        end
        else begin
          Unix.sleepf 0.05;
          wait (tries - 1)
        end
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    wait 40

(* A whole control line ((cancel N), sync (ping (id N))) on the shard's
   write side, interleaving with batch payloads under the write lock.
   During a chaos partition window toward this shard, control traffic is
   swallowed like everything else. *)
let send_control s line =
  if Unix.gettimeofday () < s.partition_until then ()
  else
    match s.conn with
    | None -> ()
    | Some c ->
      Mutex.lock s.wm;
      (try
         output_string c.oc line;
         output_char c.oc '\n';
         flush c.oc
       with Sys_error _ | Unix.Unix_error _ -> ());
      Mutex.unlock s.wm

let shard t sid = Array.to_list t.shards |> List.find_opt (fun s -> s.sid = sid)

let core_alive core sid =
  match Core.find core sid with Some s -> s.Core.alive | None -> false

(* ---- stepping the core ---- *)

type stepped = {
  actions : Core.action list;
  ready : (waiter * string) list;    (* answers, their waiters claimed *)
  kick : bool;
}

(* One core step; the caller holds t.m. *)
let step_locked t input =
  let actions = Core.step t.core input in
  let claim = function
    | Core.Answer { id; line } ->
      Option.map
        (fun w -> Hashtbl.remove t.waiters id; (w, line))
        (Hashtbl.find_opt t.waiters id)
    | _ -> None
  in
  { actions; ready = List.filter_map claim actions; kick = Core.take_kick t.core }

(* The effect executor, after t.m is released: wake the clients and the
   idle dispatchers, write the control lines.  Batches to send and
   revivals to try are left to the caller. *)
let perform t st =
  if st.kick then Condition.broadcast t.cv;
  List.iter (fun (w, line) -> fulfill w line) st.ready;
  List.iter
    (fun a ->
       match a with
       | Core.Cancel { sid; id } ->
         Option.iter (fun s -> send_control s ("(cancel " ^ string_of_int id ^ ")")) (shard t sid)
       | Core.Sync_ping { sid; id } ->
         Option.iter (fun s -> send_control s ("(ping (id " ^ string_of_int id ^ "))")) (shard t sid)
       | Core.Answer _ | Core.Send _ | Core.Revive _ -> ())
    st.actions

let run t input =
  Mutex.lock t.m;
  let st = step_locked t input in
  Mutex.unlock t.m;
  perform t st;
  st.actions

(* ---- dispatcher ---- *)

(* Chaos: kill the shard process mid-batch (Spawn), or sever the
   connection (Socket/Channels) — the dispatcher then observes exactly
   what a real crash looks like.  Whether the shard comes back is the
   revive policy's business, not the fault's. *)
let chaos_crash s =
  match s.endpoint, s.pid with
  | Spawn _, Some pid ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
  | _ ->
    (match s.conn with Some c -> nudge_conn s c | None -> ())

(* Write one batch, then feed the shard's lines to the core until it
   holds nothing in flight there.  A broken connection is a [Down]. *)
let process t s batch =
  let draw f site = Option.bind t.fault (fun p -> f p ~site:(site ^ s.sid)) in
  let net = draw Fault.Plan.on_net "net." and proc_f = draw Fault.Plan.on_shard "proc." in
  (match net with
   | Some (Fault.Plan.Net_partition d) ->
     s.partition_until <- Unix.gettimeofday () +. d
   | _ -> ());
  let awaiting () =
    Mutex.lock t.m;
    let r = Core.awaiting t.core s.sid in
    Mutex.unlock t.m;
    r
  in
  try
    let conn = get_conn s in
    let now = Unix.gettimeofday () in
    let partitioned = now < s.partition_until in
    let lines =
      match batch, net with
      | [ it ], _ -> [ Core.wire_line it ~now ]
      | items, Some Fault.Plan.Net_reorder ->
        (* deliver the batch's lines individually, in reverse — replies
           are matched by id *)
        List.rev_map (fun it -> Core.wire_line it ~now) items
      | items, _ ->
        [ "(batch "
          ^ String.concat " " (List.map (fun it -> Core.wire_line it ~now) items)
          ^ ")" ]
    in
    Mutex.lock s.wm;
    (try
       let emit l = output_string conn.oc l; output_char conn.oc '\n' in
       (match net, partitioned with
        | _, true | Some Fault.Plan.Net_drop, _ -> ()   (* swallowed *)
        | Some (Fault.Plan.Net_delay d), _ ->
          Unix.sleepf d;
          List.iter emit lines
        | Some Fault.Plan.Net_dup, _ ->
          List.iter emit lines;
          List.iter emit lines
        | _ -> List.iter emit lines);
       flush conn.oc;
       Mutex.unlock s.wm
     with e -> Mutex.unlock s.wm; raise e);
    (match proc_f with
     | Some (Fault.Plan.Slow_shard d) -> Unix.sleepf d
     | Some Fault.Plan.Crash_restart -> chaos_crash s
     | None -> ());
    let rec read () =
      let line = input_line conn.ic in
      let input =
        Core.Shard_line
          { sid = s.sid; header = Reply.read line; line; now = Unix.gettimeofday () }
      in
      Mutex.lock t.m;
      let st = step_locked t input in
      let more = Core.awaiting t.core s.sid in
      Mutex.unlock t.m;
      perform t st;
      if more then read ()
    in
    if awaiting () then read ()
  with End_of_file | Sys_error _ | Unix.Unix_error _ ->
    ignore (run t (Core.Down { sid = s.sid; now = Unix.gettimeofday () }))

let teardown t s =
  Mutex.lock t.m;
  let conn =
    match s.conn, s.endpoint with
    | (Some _ as c), _ -> c
    (* adopted channels we never spoke to still need the quit/close, or
       the far side's serve loop blocks on its read forever *)
    | None, Channels (ic, oc) -> Some { ic; oc }
    | None, (Spawn _ | Socket _) -> None
  in
  s.conn <- None;
  Mutex.unlock t.m;
  (match conn with
   | None -> ()
   | Some c ->
     (match s.endpoint with
      | Spawn _ | Channels _ ->
        (* owned shards get a polite quit so their serve loop returns *)
        (try
           output_string c.oc "(quit)\n";
           flush c.oc
         with Sys_error _ | Unix.Unix_error _ -> ())
      | Socket _ -> ());
     close_conn s c);
  reap_child s

(* Ask the core for the shard's next batch, waiting for work; exit once
   the shard is down, or the router is stopping and nothing is left. *)
let dispatcher t s =
  let rec loop () =
    Mutex.lock t.m;
    let rec next () =
      let st = step_locked t (Core.Idle { sid = s.sid; now = Unix.gettimeofday () }) in
      if st.actions = [] && core_alive t.core s.sid && not t.stopping then begin
        Condition.wait t.cv t.m;
        next ()
      end
      else st
    in
    let st = next () in
    Mutex.unlock t.m;
    perform t st;
    match List.find_map (function Core.Send { items; _ } -> Some items | _ -> None) st.actions with
    | Some batch -> process t s batch; loop ()
    | None when st.actions <> [] -> loop ()   (* expired husks answered *)
    | None -> teardown t s
  in
  loop ()

(* ---- the pacer ---- *)

let write_metrics t = Option.iter (Obs.Expo.write_file t.registry) t.metrics_file

(* Exclusive dispatcher-join: [s.disp] is taken under t.m, so a revival
   and a shutdown can never both join the same domain. *)
let take_disp t s =
  Mutex.lock t.m;
  let d = s.disp in
  s.disp <- None;
  Mutex.unlock t.m;
  match d with Some d -> Domain.join d | None -> ()

(* Re-adopt a crash-restarted shard: join the old dispatcher (it tore
   the dead connection down), probe reachability for socket endpoints,
   then mark alive and spawn a fresh dispatcher.  The breaker stays
   open-til-proven, so the revived shard earns traffic back through its
   half-open trial rather than getting a thundering herd. *)
let revive_shard t s =
  let claimed =
    Mutex.lock t.m;
    let ok = (not (core_alive t.core s.sid)) && not s.reviving && not t.stopping in
    if ok then s.reviving <- true;
    Mutex.unlock t.m;
    ok
  in
  if not claimed then false
  else begin
    take_disp t s;
    let reachable =
      match s.endpoint with
      | Spawn _ -> true   (* get_conn respawns lazily *)
      | Channels _ -> false
      | Socket path ->
        (match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
         | fd ->
           (match Unix.connect fd (Unix.ADDR_UNIX path) with
            | () ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              true
            | exception Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              false)
         | exception Unix.Unix_error _ -> false)
    in
    Mutex.lock t.m;
    let st =
      if not reachable || t.stopping then None
      else begin
        s.conn <- None;
        s.pid <- None;
        s.partition_until <- 0.;
        let st = step_locked t (Core.Revived s.sid) in
        s.disp <- Some (Domain.spawn (fun () -> dispatcher t s));
        Some st
      end
    in
    s.reviving <- false;
    Mutex.unlock t.m;
    Option.iter (perform t) st;
    st <> None
  end

let pacer t =
  let tick = Float.max 0.002 (Float.min 0.02 (t.stuck_after /. 4.)) in
  let last_metrics = ref 0. in
  let rec loop () =
    if Atomic.get t.pacer_stop then ()
    else begin
      let now = Unix.gettimeofday () in
      List.iter
        (function
          | Core.Revive sid ->
            (* crash-restarted pipes and channels cannot be re-adopted *)
            (match shard t sid with
             | Some ({ endpoint = Spawn _ | Socket _; _ } as s) -> ignore (revive_shard t s)
             | Some { endpoint = Channels _; _ } | None -> ())
          | _ -> ())
        (run t (Core.Tick now));
      if t.metrics_file <> None && now -. !last_metrics > 0.5 then begin
        last_metrics := now;
        write_metrics t
      end;
      Unix.sleepf tick;
      loop ()
    end
  in
  loop ()

(* ---- construction ---- *)

let create ?(vnodes = 64) ?(batch_max = 16) ?(steal_min = 2)
    ?(placement = Cache_aware) ?metrics ?fault ?(hedge_quantile = 0.)
    ?(hedge_floor = 0.01) ?(breaker = Breaker.default) ?(stuck_after = 1.0)
    ?(revive = false) ?metrics_file ~shards () =
  if shards = [] then invalid_arg "Router.create: no shards";
  if batch_max < 1 then invalid_arg "Router.create: batch_max < 1";
  if hedge_quantile < 0. || hedge_quantile >= 1. then
    invalid_arg "Router.create: hedge_quantile outside [0, 1)";
  if stuck_after <= 0. then invalid_arg "Router.create: stuck_after <= 0";
  (* a dead shard must surface as a broken write, not kill the router *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let registry = match metrics with Some r -> r | None -> Obs.Registry.create () in
  let core =
    Core.create ~vnodes ~registry
      { Core.placement; batch_max; steal_min; hedge_quantile; hedge_floor;
        stuck_after; revive; breaker }
      (List.map fst shards)
  in
  let shard_of (sid, endpoint) =
    { sid; endpoint; conn = None; pid = None; wm = Mutex.create (); disp = None;
      reviving = false; partition_until = 0. }
  in
  let t =
    { core; shards = Array.of_list (List.map shard_of shards); fault; stuck_after;
      metrics_file; registry; m = Mutex.create (); cv = Condition.create ();
      waiters = Hashtbl.create 256; digests = Hashtbl.create 16; dm = Mutex.create ();
      stopping = false; pacer_stop = Atomic.make false; pacer = None }
  in
  Array.iter (fun s -> s.disp <- Some (Domain.spawn (fun () -> dispatcher t s)))
    t.shards;
  t.pacer <- Some (Domain.spawn (fun () -> pacer t));
  t

(* ---- routing keys ---- *)

(* The placement key is exactly the shard-local result-cache key, so
   "route to the cached result" and "the shard will hit its cache" agree
   by construction.  Trace-file digests are memoised per path under the
   file's stat stamp, taken before hashing: a rewritten file changes
   inode, size or times, so it is re-hashed rather than placed under its
   old content's key. *)
let placement_key t (job : Server.Job.t) =
  let trace_digest () =
    match job.source with
    | Server.Job.Trace_file path ->
      let stamp = Trace.Io.stamp path in
      Mutex.lock t.dm;
      let memo = Hashtbl.find_opt t.digests path in
      Mutex.unlock t.dm;
      (match memo with
       | Some (s, d) when s = stamp -> d
       | Some _ | None ->
         let d = Server.Exec.trace_digest job.source in
         Mutex.lock t.dm;
         Hashtbl.replace t.digests path (stamp, d);
         Mutex.unlock t.dm;
         d)
    | Server.Job.Workload _ -> Server.Exec.trace_digest job.source
  in
  match trace_digest () with
  | d -> Some (Server.Result_cache.key ~trace_digest:d ~job_digest:(Server.Job.digest job))
  | exception _ -> None

(* ---- the public request path ---- *)

let submit_line t line =
  let answered r () = r in
  match Sexp.parse line with
  | exception Sexp.Reader.Parse_error msg -> answered (error_line ("parse error: " ^ msg))
  | d ->
    (match Server.Job.of_sexp d with
     | Error msg -> answered (error_line msg)
     | Ok job ->
       let key = placement_key t job in
       let w = waiter () in
       let now = Unix.gettimeofday () in
       Mutex.lock t.m;
       if t.stopping then begin
         Mutex.unlock t.m;
         answered (error_line "router is shutting down")
       end
       else begin
         let id = Core.fresh_id t.core in
         Hashtbl.replace t.waiters id w;
         let st = step_locked t (Core.Submit { id; request = line; job; key; now }) in
         Mutex.unlock t.m;
         perform t st;
         fun () -> await w
       end)

let cancel_client t n = ignore (run t (Core.Cancel_client n))

let stats_json t =
  let now = Unix.gettimeofday () in
  let int_fields l = List.map (fun (k, n) -> (k, Server.Json.Int n)) l in
  Mutex.lock t.m;
  let shards = Array.to_list (Core.shards t.core) in
  let shard_objs =
    List.map
      (fun (s : Core.shard) ->
         let c = Obs.Metric.Counter.get in
         ( s.sid,
           Server.Json.Obj
             [ ("alive", Server.Json.Bool s.alive);
               ("breaker",
                Server.Json.Str (Breaker.state_name (Breaker.state s.breaker ~now)));
               ("breaker_opens", Server.Json.Int (Breaker.opens s.breaker));
               ("ping_ms", Server.Json.Float s.ping_ms);
               ("routed", Server.Json.Int (c s.routed));
               ("hits", Server.Json.Int (c s.hits));
               ("stolen_from", Server.Json.Int (c s.steals));
               ("downs", Server.Json.Int (c s.downs));
               ("queued", Server.Json.Int (Queue.length s.q));
               ("inflight", Server.Json.Int (List.length s.pending)) ] ))
      shards
  in
  let healthy = List.length (List.filter (fun (s : Core.shard) -> s.alive) shards) in
  let owner_keys = Core.owner_count t.core in
  Mutex.unlock t.m;
  Server.Json.Obj
    [ ("status", Server.Json.Str "ok");
      ("router", Server.Json.Bool true);
      ("shards_total", Server.Json.Int (List.length shards));
      ("shards_healthy", Server.Json.Int healthy);
      (* size of the cache-aware placement map: shard stores must keep
         key lookups cheap for this table to stay warm and useful *)
      ("owner_keys", Server.Json.Int owner_keys);
      ("resilience", Server.Json.Obj (int_fields (Core.resilience t.core)));
      ("placement", Server.Json.Obj (int_fields (Core.placement_counts t.core)));
      ("shards", Server.Json.Obj shard_objs) ]

(* (ping) or (ping (id N)) *)
let ping_id rest =
  let rec find d =
    match d with
    | Sexp.Datum.Cons
        (Sexp.Datum.Cons
           (Sexp.Datum.Sym "id",
            Sexp.Datum.Cons (Sexp.Datum.Int n, Sexp.Datum.Nil)), _) ->
      Some n
    | Sexp.Datum.Cons (_, tl) -> find tl
    | _ -> None
  in
  find rest

let handle_line t line =
  let line = String.trim line in
  if line = "" then []
  else
    match Sexp.parse line with
    | exception Sexp.Reader.Parse_error msg -> [ error_line ("parse error: " ^ msg) ]
    | Sexp.Datum.Cons (Sym "stats", Nil) -> [ Server.Json.to_string (stats_json t) ]
    | Sexp.Datum.Cons (Sym "ping", rest) -> [ pong_line ?id:(ping_id rest) () ]
    | Sexp.Datum.Cons (Sym "cancel", Cons (Int n, Nil)) ->
      (* fire-and-forget, mirroring the shard protocol: no reply line —
         the cancelled job answers in its own slot *)
      cancel_client t n;
      []
    | Sexp.Datum.Cons (Sym "batch", rest) when Sexp.Datum.is_list rest ->
      (* route every job before awaiting any reply: the shards run the
         batch concurrently, replies keep request order *)
      let joins =
        List.map (fun d -> submit_line t (Sexp.to_string d)) (Sexp.Datum.to_list rest)
      in
      List.map (fun j -> j ()) joins
    | _ -> [ submit_line t line () ]

(* ---- health surface ---- *)

let shard_ids t = Array.to_list t.shards |> List.map (fun s -> s.sid)

let with_core t f =
  Mutex.lock t.m;
  let r = f t.core in
  Mutex.unlock t.m;
  r

let alive_ids t = with_core t (fun core -> List.filter (core_alive core) (shard_ids t))

let spawned_pids t =
  with_core t (fun core ->
      Array.to_list t.shards
      |> List.filter_map (fun s ->
          match s.pid with
          | Some pid when core_alive core s.sid -> Some (s.sid, pid)
          | _ -> None))

let is_idle t sid =
  with_core t (fun core ->
      match Core.find core sid with
      | Some s -> s.Core.alive && Queue.is_empty s.Core.q && s.Core.pending = []
      | None -> false)

let probe t sid =
  let w = waiter () in
  Mutex.lock t.m;
  let st =
    if core_alive t.core sid then begin
      let id = Core.fresh_id t.core in
      Hashtbl.replace t.waiters id w;
      Some (step_locked t (Core.Probe { id; sid }))
    end
    else None
  in
  Mutex.unlock t.m;
  Option.map (fun st -> perform t st; fun () -> try_reply w) st

let mark_down t sid =
  match shard t sid with
  | None -> ()
  | Some s ->
    Mutex.lock t.m;
    (* wake a dispatcher blocked reading the dead connection; under t.m,
       so its teardown cannot have closed the connection yet *)
    if core_alive t.core sid then Option.iter (nudge_conn s) s.conn;
    let st = step_locked t (Core.Down { sid; now = Unix.gettimeofday () }) in
    Mutex.unlock t.m;
    perform t st

let kill t sid =
  (match shard t sid with
   | Some { pid = Some pid; _ } ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
   | _ -> ());
  mark_down t sid

let revive t sid =
  match shard t sid with
  | None -> false
  | Some s -> revive_shard t s

(* ---- serving ---- *)

let serve_channels t ic oc =
  let quit = ref false in
  (try
     while not !quit do
       let line = input_line ic in
       if String.trim line = "(quit)" then quit := true
       else
         List.iter
           (fun resp -> output_string oc resp; output_char oc '\n'; flush oc)
           (handle_line t line)
     done
   with End_of_file -> ());
  !quit

let serve_socket t ~path =
  (* every router-held fd must be close-on-exec: shard children are
     spawned while sessions are live, and an inherited copy of a client
     connection would keep it open after the session closes — the client
     then never sees EOF *)
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stop = Atomic.make false in
  let sm = Mutex.create () in
  let sessions = ref [] in
  (* only unlink what we actually bound: a refused path (regular file, a
     live server) must be left exactly as found *)
  let bound = ref false in
  Fun.protect
    ~finally:(fun () ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        (if !bound then try Unix.unlink path with Unix.Unix_error _ -> ());
        Mutex.lock sm;
        let ds = !sessions in
        sessions := [];
        Mutex.unlock sm;
        List.iter Domain.join ds)
    (fun () ->
       Server.Service.bind_socket_replacing sock path;
       bound := true;
       Unix.listen sock 64;
       while not (Atomic.get stop) do
         match Unix.accept sock with
         | exception Unix.Unix_error _ -> Atomic.set stop true
         | fd, _ ->
           (try Unix.set_close_on_exec fd with Unix.Unix_error _ -> ());
           if Atomic.get stop then (try Unix.close fd with Unix.Unix_error _ -> ())
           else begin
             let d =
               Domain.spawn (fun () ->
                   let ic = Unix.in_channel_of_descr fd in
                   let oc = Unix.out_channel_of_descr fd in
                   (match serve_channels t ic oc with
                    | true ->
                      Atomic.set stop true;
                      (* a throwaway connection unblocks the accept loop *)
                      (try
                         let c = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                         (try Unix.connect c (Unix.ADDR_UNIX path)
                          with Unix.Unix_error _ -> ());
                         Unix.close c
                       with Unix.Unix_error _ -> ())
                    | false -> ()
                    | exception Sys_error _ -> ());
                   (try flush oc with Sys_error _ -> ());
                   try Unix.close fd with Unix.Unix_error _ -> ())
             in
             Mutex.lock sm;
             sessions := d :: !sessions;
             Mutex.unlock sm
           end
       done)

let shutdown t =
  Mutex.lock t.m;
  let first = not t.stopping in
  t.stopping <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  if first then begin
    (* dispatchers first: the pacer keeps sync-pinging stuck shards so a
       read loop blocked on a chaos-dropped payload can still drain *)
    Array.iter (take_disp t) t.shards;
    Atomic.set t.pacer_stop true;
    (match t.pacer with Some d -> Domain.join d | None -> ());
    (* a revival racing the stop may have spawned one more dispatcher;
       it sees [stopping], drains, and exits *)
    Array.iter (take_disp t) t.shards;
    write_metrics t
  end
