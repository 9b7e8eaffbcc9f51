type endpoint =
  | Spawn of string array
  | Socket of string
  | Channels of in_channel * out_channel

type placement = Cache_aware | Hash_only | Uniform

type conn = {
  ic : in_channel;
  oc : out_channel;
}

(* One routed request.  [tried] records the shards that have actually
   seen it (set at send time), so failover and overload draining never
   bounce a job back to a shard that already refused it.  [at] is the
   live view — shards currently holding the item in flight — which is
   what deadline expiry and the hedge winner cancel against.  [id] is
   the router's wire id: every line sent to a shard carries it, every
   reply echoes it, so replies are matched by id rather than by stream
   position and a lost message is detectable. *)
type item = {
  id : int;
  line : string;                             (* the client's original line *)
  client_id : int option;                    (* client-supplied (id N), re-injected *)
  job : Server.Job.t option;                 (* parsed job, for wire rewriting *)
  kind : [ `Job of string option | `Raw ];   (* `Job carries the cache key *)
  deadline : float;                          (* absolute; [infinity] if none *)
  mutable tried : string list;
  mutable at : string list;
  mutable sent_at : float;
  mutable hedged : bool;
  mutable resends : int;
  mutable reply : string option;
  im : Mutex.t;
  icv : Condition.t;
}

type shard = {
  sid : string;
  endpoint : endpoint;
  mutable conn : conn option;
  mutable pid : int option;          (* spawned child, until reaped *)
  mutable alive : bool;
  q : item Queue.t;
  mutable inflight : int;            (* items in the batch at the shard *)
  wm : Mutex.t;                      (* write-side lock: batch payloads and
                                        control lines ((cancel), sync pings)
                                        interleave whole-line *)
  mutable disp : unit Domain.t option;
  mutable reviving : bool;           (* a revival claim is in progress *)
  mutable batch_seq : int;           (* dispatches so far, orders sync pings *)
  mutable batch_started : float;
  mutable sync_sent : float;
  mutable down_at : float;
  mutable partition_until : float;   (* chaos: one-way partition window *)
  mutable ping_ms : float;           (* last probe round-trip *)
  breaker : Breaker.t;
  routed : Obs.Metric.Counter.t;
  hits : Obs.Metric.Counter.t;       (* replies with "cached":true *)
  steals : Obs.Metric.Counter.t;     (* items stolen FROM this shard *)
  downs : Obs.Metric.Counter.t;
  lat : Obs.Metric.Histogram.t;      (* per-item round-trip, feeds hedging *)
  b_state : Obs.Metric.Gauge.t;      (* 0 closed / 1 half-open / 2 open *)
  up_g : Obs.Metric.Gauge.t;
}

type t = {
  ring : Ring.t;
  shards : shard array;
  placement : placement;
  batch_max : int;
  steal_min : int;
  fault : Fault.Plan.t option;       (* network/process chaos, seeded *)
  hedge_quantile : float;            (* 0 disables hedged execution *)
  hedge_floor : float;               (* never hedge faster than this *)
  stuck_after : float;               (* seconds before a sync ping probes a
                                        silent in-flight batch *)
  revive : bool;                     (* re-adopt crash-restarted shards *)
  metrics_file : string option;
  registry : Obs.Registry.t;
  m : Mutex.t;
  cv : Condition.t;                  (* new work / state change *)
  (* key -> shard whose result cache holds this key's value *)
  owners_tbl : (string, string) Hashtbl.t;
  (* trace-file path -> stamp, digest *)
  digests : (string, Trace.Io.stamp * string) Hashtbl.t;
  dm : Mutex.t;                           (* digest memo lock *)
  next_id : int Atomic.t;
  inflight_tbl : (int, item) Hashtbl.t;   (* router id -> live job item *)
  syncs : (int, string * int) Hashtbl.t;  (* sync ping id -> (sid, batch_seq) *)
  mutable rr : int;                       (* uniform round-robin cursor *)
  mutable stopping : bool;
  pacer_stop : bool Atomic.t;
  mutable pacer : unit Domain.t option;
  placements : (string * Obs.Metric.Counter.t) list;
  batch_seconds : Obs.Metric.Histogram.t;
  hedged_c : Obs.Metric.Counter.t;
  hedge_wins_c : Obs.Metric.Counter.t;
  expired_c : Obs.Metric.Counter.t;
  cancels_c : Obs.Metric.Counter.t;
  resends_c : Obs.Metric.Counter.t;
  revivals_c : Obs.Metric.Counter.t;
}

(* Placement decisions are capped from growing without bound on a
   long-lived router; the table is an optimisation over hash ownership,
   so dropping it only costs locality for a while. *)
let owners_cap = 1 lsl 18

(* A flush-detected loss is retried at most this many times before the
   client sees the typed shard_down reply. *)
let max_resends = 3

(* ---- wire helpers ---- *)

let error_line msg =
  Server.Json.to_string
    (Server.Json.Obj
       [ ("status", Server.Json.Str "error"); ("error", Server.Json.Str msg) ])

let shard_down_line request =
  Server.Json.to_string
    (Server.Json.Obj
       [ ("status", Server.Json.Str "shard_down");
         ("error", Server.Json.Str "no healthy shard available");
         ("request", Server.Json.Str request) ])

let deadline_line request =
  Server.Json.to_string
    (Server.Json.Obj
       [ ("status", Server.Json.Str "timeout");
         ("error", Server.Json.Str "deadline exceeded in router");
         ("request", Server.Json.Str request) ])

let cancelled_line request =
  Server.Json.to_string
    (Server.Json.Obj
       [ ("status", Server.Json.Str "cancelled");
         ("error", Server.Json.Str "cancelled by client");
         ("request", Server.Json.Str request) ])

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

(* ---- items ---- *)

let make_item ~id ~line ?client_id ?job ~kind ?(deadline = infinity) () =
  { id; line; client_id; job; kind; deadline;
    tried = []; at = []; sent_at = 0.; hedged = false; resends = 0;
    reply = None; im = Mutex.create (); icv = Condition.create () }

(* First reply wins: with hedged execution an item can be answered from
   two shards, and only the winner's bytes reach the client. *)
let fulfill it line =
  Mutex.lock it.im;
  let won = it.reply = None in
  if won then begin
    it.reply <- Some line;
    Condition.broadcast it.icv
  end;
  Mutex.unlock it.im;
  won

let await it =
  Mutex.lock it.im;
  while it.reply = None do
    Condition.wait it.icv it.im
  done;
  let r = Option.get it.reply in
  Mutex.unlock it.im;
  r

let try_reply it =
  Mutex.lock it.im;
  let r = it.reply in
  Mutex.unlock it.im;
  r

(* Re-inject the client's own (id N) into a line the router made itself,
   so a routed client sees exactly what a direct one would.  Shard
   replies go through [Reply.for_client], which also strips the wire id
   the shard echoed. *)
let present it line =
  match it.client_id with
  | None -> line
  | Some n ->
    let len = String.length line in
    if len >= 2 && line.[0] = '{' then
      if line = "{}" then "{\"id\":" ^ string_of_int n ^ "}"
      else "{\"id\":" ^ string_of_int n ^ "," ^ String.sub line 1 (len - 1)
    else line

(* The line actually sent to a shard: the job re-serialised with the
   router's wire id and the remaining deadline budget (absolute budget
   decremented by time already spent queued and routed — the propagation
   half of deadline enforcement; the shard's scheduler enforces the
   remainder, the router's pacer enforces the total). *)
let wire_line it now =
  match it.job with
  | None -> it.line
  | Some job ->
    let deadline =
      if it.deadline = infinity then None
      else Some (Float.max 0. (it.deadline -. now))
    in
    Sexp.to_string
      (Server.Job.to_sexp
         { job with Server.Job.wire_id = Some it.id; deadline })

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

(* ---- placement (all under t.m) ---- *)

let shard_by_id t sid = Array.to_list t.shards |> List.find (fun s -> s.sid = sid)

let find_shard t sid =
  Array.to_list t.shards |> List.find_opt (fun s -> s.sid = sid)

let count_placement t kind n =
  match List.assoc_opt kind t.placements with
  | Some c -> Obs.Metric.Counter.add c n
  | None -> ()

let enqueue_locked t s it ~kind =
  Obs.Metric.Counter.incr s.routed;
  count_placement t kind 1;
  Queue.add it s.q;
  Condition.broadcast t.cv

(* Admission through the shard's circuit breaker.  Callers arrange that
   the first admitted shard actually receives the job, so a half-open
   trial slot is never consumed without traffic. *)
let breaker_admits s = Breaker.allow s.breaker

(* The next healthy shard this item has not yet been sent to, in ring
   preference order for its key (any order for keyless/uniform items).
   Breaker-refusing shards are passed over while an admitted one exists;
   when every candidate's breaker refuses, the router fails open on
   liveness alone — refusing all traffic would be worse than risking a
   slow shard. *)
let next_candidate_locked t it =
  let pref =
    match it.kind with
    | `Job (Some key) when t.placement <> Uniform -> Ring.owners t.ring key
    | _ -> Array.to_list (Array.map (fun s -> s.sid) t.shards)
  in
  let live sid =
    let s = shard_by_id t sid in
    s.alive && not (List.mem sid it.tried)
  in
  match List.find_opt (fun sid -> live sid && breaker_admits (shard_by_id t sid)) pref with
  | Some sid -> Some (shard_by_id t sid)
  | None -> List.find_opt live pref |> Option.map (shard_by_id t)

let choose_initial_locked t key =
  let alive = Array.to_list t.shards |> List.filter (fun s -> s.alive) in
  if alive = [] then None
  else
    let pick_rr () =
      t.rr <- t.rr + 1;
      let n = List.length alive in
      let start = t.rr mod n in
      let rec go i =
        if i >= n then List.nth alive start  (* all breakers refused: fail open *)
        else
          let s = List.nth alive ((start + i) mod n) in
          if breaker_admits s then s else go (i + 1)
      in
      go 0
    in
    match t.placement, key with
    | Uniform, _ | _, None -> Some (pick_rr (), "uniform")
    | (Cache_aware | Hash_only), Some key ->
      let cache_owner =
        if t.placement = Cache_aware then Hashtbl.find_opt t.owners_tbl key
        else None
      in
      let owner_admitted =
        match cache_owner with
        | Some sid ->
          let s = shard_by_id t sid in
          if s.alive && breaker_admits s then Some s else None
        | None -> None
      in
      (match owner_admitted with
       | Some s -> Some (s, "cache")
       | None ->
         let pref = Ring.owners t.ring key in
         let first = List.nth_opt pref 0 in
         let tag sid = if Some sid = first then "hash" else "failover" in
         (match
            List.find_opt
              (fun sid ->
                 let s = shard_by_id t sid in
                 s.alive && breaker_admits s)
              pref
          with
          | Some sid -> Some (shard_by_id t sid, tag sid)
          | None ->
            (match List.find_opt (fun sid -> (shard_by_id t sid).alive) pref with
             | Some sid -> Some (shard_by_id t sid, tag sid)
             | None -> None)))

(* Reroute a job that its shard failed or refused; [fallback] is the
   reply when no healthy shard remains (typed shard_down for a death,
   the shard's own overloaded reply for a drain). *)
let reroute_locked t it ~kind ~fallback =
  match it.kind with
  | `Raw -> ignore (fulfill it fallback)
  | `Job _ ->
    (match next_candidate_locked t it with
     | Some s' -> enqueue_locked t s' it ~kind
     | None -> ignore (fulfill it (present it fallback)))

let mark_down_locked t s =
  if s.alive then begin
    s.alive <- false;
    s.down_at <- Unix.gettimeofday ();
    Obs.Metric.Counter.incr s.downs;
    Obs.Metric.Gauge.set s.up_g 0;
    (* conviction: a dead shard's breaker opens immediately, so placement
       avoids it the moment it revives until it proves itself *)
    Breaker.force_open s.breaker;
    (match s.conn with Some c -> nudge_conn s c | None -> ());
    (* sync pings in flight toward a dead shard will never pong *)
    let stale =
      Hashtbl.fold
        (fun id (sid, _) acc -> if sid = s.sid then id :: acc else acc)
        t.syncs []
    in
    List.iter (Hashtbl.remove t.syncs) stale;
    let pending = List.of_seq (Queue.to_seq s.q) in
    Queue.clear s.q;
    List.iter
      (fun it ->
         if try_reply it = None then
           reroute_locked t it ~kind:"failover" ~fallback:(shard_down_line it.line))
      pending;
    Condition.broadcast t.cv
  end

(* ---- reply handling ---- *)

(* A shard's reply for an in-flight item, read once into its header [h]:
   strip the wire id, settle the first-wins race, update cache ownership
   (hinted handoff — the winner, hedge target or not, owns the key now)
   and cancel the losing copy. *)
let handle_reply t s it (h : Reply.header) line =
  let now = Unix.gettimeofday () in
  let cancels = ref [] in
  Mutex.lock t.m;
  s.inflight <- max 0 (s.inflight - 1);
  it.at <- List.filter (fun x -> x <> s.sid) it.at;
  let rtt = now -. it.sent_at in
  (match it.kind with
   | `Raw ->
     Breaker.record_rtt s.breaker rtt;
     s.ping_ms <- rtt *. 1000.;
     ignore (fulfill it (Reply.for_client h line))
   | `Job _ ->
     if it.sent_at > 0. then Obs.Metric.Histogram.record s.lat rtt;
     Breaker.record_success s.breaker;
     let drain_to =
       if h.status = `Overloaded && try_reply it = None then next_candidate_locked t it
       else None
     in
     match drain_to with
     | Some s' ->
       (* the overload ladder, cluster rung: drain refused work to a
          healthy shard instead of bouncing the client *)
       enqueue_locked t s' it ~kind:"drain"
     | None ->
       let won = fulfill it (Reply.for_client ?client_id:it.client_id h line) in
       if won then begin
         (* answered items are skipped by every other reader of the
            table; dropping this one now, not at the pacer's next
            sweep, lets it and its reply die young instead of being
            promoted to the major heap *)
         Hashtbl.remove t.inflight_tbl it.id;
         (match it.kind with
          | `Job (Some key) when h.status = `Ok ->
            if Hashtbl.length t.owners_tbl > owners_cap then
              Hashtbl.reset t.owners_tbl;
            Hashtbl.replace t.owners_tbl key s.sid
          | _ -> ());
         if h.cached then Obs.Metric.Counter.incr s.hits;
         if it.hedged then Obs.Metric.Counter.incr t.hedge_wins_c;
         List.iter (fun sid -> cancels := (sid, it.id) :: !cancels) it.at
       end);
  Mutex.unlock t.m;
  List.iter
    (fun (sid, id) ->
       match find_shard t sid with
       | Some s' ->
         Obs.Metric.Counter.incr t.cancels_c;
         send_control s' ("(cancel " ^ string_of_int id ^ ")")
       | None -> ())
    !cancels

(* A sync pong arrived while requests sent before it are still
   unanswered: the shard's ordered reply stream proves those requests
   never reached it (chaos drop, partition, torn write).  Retry each a
   bounded number of times, then give the client the typed reply. *)
let flush_lost t s pending =
  Mutex.lock t.m;
  Breaker.record_failure s.breaker;
  let items = Hashtbl.fold (fun _ it acc -> it :: acc) pending [] in
  Hashtbl.reset pending;
  List.iter
    (fun it ->
       s.inflight <- max 0 (s.inflight - 1);
       it.at <- List.filter (fun x -> x <> s.sid) it.at;
       match it.kind with
       | `Raw -> ()  (* a lost probe stays unanswered: the health monitor's
                        overdue deadline is the conviction path *)
       | `Job _ ->
         if try_reply it = None then begin
           it.resends <- it.resends + 1;
           Obs.Metric.Counter.incr t.resends_c;
           if it.resends > max_resends then
             ignore (fulfill it (present it (shard_down_line it.line)))
           else begin
             (* the loss was transient: this shard may be retried *)
             it.tried <- List.filter (fun x -> x <> s.sid) it.tried;
             match next_candidate_locked t it with
             | Some s' -> enqueue_locked t s' it ~kind:"resend"
             | None -> ignore (fulfill it (present it (shard_down_line it.line)))
           end
         end)
    items;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

(* ---- dispatcher ---- *)

(* Steal half the longest queue (>= steal_min) onto idle shard [s],
   preferring items the victim holds no cached result for — stealing a
   cache-owned key would convert its hit into a miss on the thief. *)
let steal_locked t s =
  if t.steal_min <= 0 then false
  else begin
    let best = ref None in
    Array.iter
      (fun v ->
         if v != s && v.alive then begin
           let len = Queue.length v.q in
           if len >= t.steal_min then
             match !best with
             | Some (_, blen) when blen >= len -> ()
             | _ -> best := Some (v, len)
         end)
      t.shards;
    match !best with
    | None -> false
    | Some (v, len) ->
      let k = (len + 1) / 2 in
      let all = List.of_seq (Queue.to_seq v.q) in
      Queue.clear v.q;
      let owned it =
        match it.kind with
        | `Job (Some key) -> Hashtbl.find_opt t.owners_tbl key = Some v.sid
        | _ -> false
      in
      let take_last n l =
        let len = List.length l in
        if len <= n then l else List.filteri (fun i _ -> i >= len - n) l
      in
      let free, held = List.partition (fun it -> not (owned it)) all in
      let stolen =
        if List.length free >= k then take_last k free
        else free @ take_last (k - List.length free) held
      in
      let kept = List.filter (fun it -> not (List.memq it stolen)) all in
      List.iter (fun it -> Queue.add it v.q) kept;
      List.iter (fun it -> Queue.add it s.q) stolen;
      Obs.Metric.Counter.add v.steals (List.length stolen);
      count_placement t "steal" (List.length stolen);
      not (Queue.is_empty s.q)
  end

(* Pop the next live item: hedge-winner husks are dropped, queued items
   past their deadline are answered with the typed timeout right here —
   running dead-on-arrival work would burn a shard slot for a reply
   nobody is waiting on. *)
let rec pop_live t s =
  match Queue.take_opt s.q with
  | None -> None
  | Some it ->
    if try_reply it <> None then pop_live t s
    else if Unix.gettimeofday () > it.deadline then begin
      Obs.Metric.Counter.incr t.expired_c;
      ignore (fulfill it (present it (deadline_line it.line)));
      pop_live t s
    end
    else Some it

(* Take the next micro-batch: a Raw line travels alone (its reply count
   differs from a job's), jobs group up to batch_max.  Marks each item
   as tried at this shard.  May return [] when the queue held only
   husks. *)
let take_batch_locked t s =
  match pop_live t s with
  | None -> []
  | Some first ->
    first.tried <- s.sid :: first.tried;
    (match first.kind with
     | `Raw -> [ first ]
     | `Job _ ->
       let rec grab acc n =
         if n >= t.batch_max || Queue.is_empty s.q then List.rev acc
         else
           match Queue.peek s.q with
           | { kind = `Raw; _ } -> List.rev acc
           | _ ->
             (match pop_live t s with
              | None -> List.rev acc
              | Some it ->
                it.tried <- s.sid :: it.tried;
                grab (it :: acc) (n + 1))
       in
       first :: grab [] 1)

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

let process t s batch seq =
  let site_net = "net." ^ s.sid and site_proc = "proc." ^ s.sid in
  let net =
    match t.fault with None -> None | Some p -> Fault.Plan.on_net p ~site:site_net
  in
  let proc_f =
    match t.fault with None -> None | Some p -> Fault.Plan.on_shard p ~site:site_proc
  in
  (match net with
   | Some (Fault.Plan.Net_partition d) ->
     s.partition_until <- Unix.gettimeofday () +. d
   | _ -> ());
  let result =
    try
      let conn = get_conn s in
      let now = Unix.gettimeofday () in
      let partitioned = now < s.partition_until in
      let lines =
        match batch, net with
        | [ it ], _ -> [ wire_line it now ]
        | items, Some Fault.Plan.Net_reorder ->
          (* deliver the batch's lines individually, in reverse — the
             id-matched read loop reassembles the answers *)
          List.rev_map (fun it -> wire_line it now) items
        | items, _ ->
          [ "(batch "
            ^ String.concat " " (List.map (fun it -> wire_line it now) items)
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
      (* id-matched read loop: replies may be out of order (reorder
         chaos), duplicated (dup chaos) or missing (drop/partition); a
         sync pong ordered after this batch proves anything still
         pending was lost *)
      let pending = Hashtbl.create 16 in
      List.iter (fun it -> Hashtbl.replace pending it.id it) batch;
      let order = ref batch in
      let t0 = Unix.gettimeofday () in
      let rec read_loop () =
        if Hashtbl.length pending = 0 then ()
        else begin
          let line = input_line conn.ic in
          let h = Reply.read line in
          (match h.id with
           | id when id >= 0 && Hashtbl.mem pending id ->
             let it = Hashtbl.find pending id in
             Hashtbl.remove pending id;
             order := List.filter (fun o -> o.id <> id) !order;
             handle_reply t s it h line
           | id when id >= 0 ->
             let sync =
               Mutex.lock t.m;
               let r = Hashtbl.find_opt t.syncs id in
               (match r with Some _ -> Hashtbl.remove t.syncs id | None -> ());
               Mutex.unlock t.m;
               r
             in
             (match sync with
              | Some (_, sseq) when sseq >= seq && Hashtbl.length pending > 0 ->
                flush_lost t s pending
              | _ -> ())   (* stale sync, or a dup-chaos echo: ignore *)
           | _ ->
             (* an id-less line from an ordered stream answers the oldest
                outstanding request *)
             (match !order with
              | it :: rest when Hashtbl.mem pending it.id ->
                order := rest;
                Hashtbl.remove pending it.id;
                handle_reply t s it h line
              | _ -> ()));
          read_loop ()
        end
      in
      read_loop ();
      Ok (Unix.gettimeofday () -. t0)
    with End_of_file | Sys_error _ | Unix.Unix_error _ -> Error ()
  in
  match result with
  | Error () ->
    (* shard gone mid-flight: declare it down and fail the batch over *)
    Mutex.lock t.m;
    s.inflight <- 0;
    mark_down_locked t s;
    List.iter
      (fun it ->
         it.at <- List.filter (fun x -> x <> s.sid) it.at;
         if try_reply it = None then
           reroute_locked t it ~kind:"failover" ~fallback:(shard_down_line it.line))
      batch;
    Condition.broadcast t.cv;
    Mutex.unlock t.m
  | Ok dt ->
    Obs.Metric.Histogram.record t.batch_seconds dt;
    Mutex.lock t.m;
    s.inflight <- 0;
    Condition.broadcast t.cv;
    Mutex.unlock t.m

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

let dispatcher t s =
  let rec loop () =
    Mutex.lock t.m;
    let rec decide () =
      if not s.alive then `Exit
      else if not (Queue.is_empty s.q) then `Work
      else if steal_locked t s then `Work
      else if t.stopping then `Exit
      else begin
        Condition.wait t.cv t.m;
        decide ()
      end
    in
    match decide () with
    | `Exit ->
      Mutex.unlock t.m;
      teardown t s
    | `Work ->
      (match take_batch_locked t s with
       | [] ->
         Mutex.unlock t.m;
         loop ()
       | batch ->
         s.inflight <- List.length batch;
         s.batch_seq <- s.batch_seq + 1;
         s.batch_started <- Unix.gettimeofday ();
         s.sync_sent <- 0.;
         let seq = s.batch_seq in
         List.iter
           (fun it ->
              it.sent_at <- s.batch_started;
              it.at <- s.sid :: it.at)
           batch;
         Mutex.unlock t.m;
         process t s batch seq;
         loop ())
  in
  loop ()

(* ---- the pacer ---- *)

(* The hedge trigger for a shard: twice its observed per-item latency
   quantile, floored — hedging against noise would double load for
   nothing.  Needs a minimum sample count before it trusts the
   histogram. *)
let hedge_trigger t s =
  let snap = Obs.Metric.Histogram.snapshot s.lat in
  if Obs.Metric.Histogram.count snap < 16 then infinity
  else
    Float.max t.hedge_floor
      (2. *. Obs.Metric.Histogram.quantile snap t.hedge_quantile)

let write_metrics t =
  match t.metrics_file with
  | None -> ()
  | Some path ->
    let text = Obs.Expo.of_registry t.registry in
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

(* One pacer sweep: expire deadlines (and cancel the shard-side work),
   trigger hedges on slow in-flight items, sync-ping silent shards so
   lost messages surface, refresh breaker gauges, collect revive
   candidates.  Control sends happen after t.m is released. *)
let pacer_once t =
  let now = Unix.gettimeofday () in
  let cancels = ref [] in
  let syncs_out = ref [] in
  let revive_candidates = ref [] in
  Mutex.lock t.m;
  let actions = ref [] in
  Hashtbl.iter
    (fun id it ->
       if try_reply it <> None then actions := `Forget id :: !actions
       else if now > it.deadline then actions := `Expire (id, it) :: !actions
       else if
         t.hedge_quantile > 0. && not it.hedged && it.sent_at > 0.
         && (match it.at with [ _ ] -> true | _ -> false)
       then begin
         match it.at with
         | [ sid ] ->
           (match find_shard t sid with
            | Some s when now -. it.sent_at > hedge_trigger t s ->
              (match next_candidate_locked t it with
               | Some s' ->
                 it.hedged <- true;
                 Obs.Metric.Counter.incr t.hedged_c;
                 enqueue_locked t s' it ~kind:"hedge"
               | None -> ())
            | _ -> ())
         | _ -> ()
       end)
    t.inflight_tbl;
  List.iter
    (function
      | `Forget id -> Hashtbl.remove t.inflight_tbl id
      | `Expire (id, it) ->
        Hashtbl.remove t.inflight_tbl id;
        if fulfill it (present it (deadline_line it.line)) then begin
          Obs.Metric.Counter.incr t.expired_c;
          (* cross-wire cancel: free the shard workers still running it *)
          List.iter (fun sid -> cancels := (sid, it.id) :: !cancels) it.at
        end)
    !actions;
  Array.iter
    (fun s ->
       if s.alive && s.inflight > 0 && s.conn <> None then begin
         let last = Float.max s.batch_started s.sync_sent in
         if now -. last > t.stuck_after then begin
           let id = Atomic.fetch_and_add t.next_id 1 in
           Hashtbl.replace t.syncs id (s.sid, s.batch_seq);
           s.sync_sent <- now;
           syncs_out := (s, id) :: !syncs_out
         end
       end;
       Breaker.note_queue_depth s.breaker (Queue.length s.q);
       Obs.Metric.Gauge.set s.b_state
         (Breaker.state_code (Breaker.state s.breaker));
       Obs.Metric.Gauge.set s.up_g (if s.alive then 1 else 0);
       if
         t.revive && not t.stopping && not s.alive
         && now -. s.down_at > 0.25
         && (match s.endpoint with Channels _ -> false | _ -> true)
       then revive_candidates := s :: !revive_candidates)
    t.shards;
  Mutex.unlock t.m;
  List.iter
    (fun (sid, id) ->
       match find_shard t sid with
       | Some s ->
         Obs.Metric.Counter.incr t.cancels_c;
         send_control s ("(cancel " ^ string_of_int id ^ ")")
       | None -> ())
    !cancels;
  List.iter
    (fun (s, id) -> send_control s ("(ping (id " ^ string_of_int id ^ "))"))
    !syncs_out;
  !revive_candidates

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
    let ok = (not s.alive) && not s.reviving && not t.stopping in
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
    let did =
      if not reachable || t.stopping then begin
        s.down_at <- Unix.gettimeofday ();   (* back off before the next try *)
        false
      end
      else begin
        s.conn <- None;
        s.pid <- None;
        s.alive <- true;
        s.inflight <- 0;
        s.partition_until <- 0.;
        s.sync_sent <- 0.;
        Obs.Metric.Counter.incr t.revivals_c;
        Obs.Metric.Gauge.set s.up_g 1;
        s.disp <- Some (Domain.spawn (fun () -> dispatcher t s));
        Condition.broadcast t.cv;
        true
      end
    in
    s.reviving <- false;
    Mutex.unlock t.m;
    did
  end

let pacer t =
  let tick = Float.max 0.002 (Float.min 0.02 (t.stuck_after /. 4.)) in
  let last_metrics = ref 0. in
  let rec loop () =
    if Atomic.get t.pacer_stop then ()
    else begin
      let candidates = pacer_once t in
      List.iter (fun s -> ignore (revive_shard t s)) candidates;
      let now = Unix.gettimeofday () in
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
  let metrics = match metrics with Some r -> r | None -> Obs.Registry.create () in
  let ring = Ring.create ~vnodes (List.map fst shards) in
  let shard_of (sid, endpoint) =
    let c name help =
      Obs.Registry.counter metrics ~help ~labels:[ ("shard", sid) ] name
    in
    let opens =
      Obs.Registry.counter metrics
        ~help:"circuit-breaker closed-to-open transitions"
        ~labels:[ ("shard", sid) ] "small_breaker_open_total"
    in
    { sid; endpoint; conn = None; pid = None; alive = true;
      q = Queue.create (); inflight = 0; wm = Mutex.create (); disp = None;
      reviving = false; batch_seq = 0; batch_started = 0.; sync_sent = 0.; down_at = 0.;
      partition_until = 0.; ping_ms = 0.;
      breaker =
        Breaker.create ~config:breaker
          ~on_open:(fun () -> Obs.Metric.Counter.incr opens) ();
      routed = c "small_router_requests_total" "requests routed to this shard";
      hits = c "small_router_hits_total" "replies served from this shard's cache";
      steals = c "small_router_steals_total" "queued jobs stolen from this shard";
      downs = c "small_router_shard_down_total" "times this shard was marked down";
      lat =
        Obs.Registry.histogram metrics
          ~help:"per-item shard round-trip seconds"
          ~labels:[ ("shard", sid) ]
          ~bounds:Obs.Metric.Histogram.fine_latency_bounds
          "small_router_shard_seconds";
      b_state =
        Obs.Registry.gauge metrics
          ~help:"circuit-breaker state: 0 closed, 1 half-open, 2 open"
          ~labels:[ ("shard", sid) ] "small_breaker_state";
      up_g =
        Obs.Registry.gauge metrics ~help:"1 while the shard is considered alive"
          ~labels:[ ("shard", sid) ] "small_shard_up" }
  in
  let placements =
    List.map
      (fun kind ->
         ( kind,
           Obs.Registry.counter metrics
             ~help:"routing decisions, by placement kind"
             ~labels:[ ("kind", kind) ] "small_router_placement_total" ))
      [ "cache"; "hash"; "uniform"; "failover"; "drain"; "steal"; "hedge";
        "resend" ]
  in
  let c0 name help = Obs.Registry.counter metrics ~help name in
  let t =
    { ring; shards = Array.of_list (List.map shard_of shards);
      placement; batch_max; steal_min; fault; hedge_quantile; hedge_floor;
      stuck_after; revive; metrics_file; registry = metrics;
      m = Mutex.create (); cv = Condition.create ();
      owners_tbl = Hashtbl.create 1024;
      digests = Hashtbl.create 16; dm = Mutex.create ();
      next_id = Atomic.make 1;
      inflight_tbl = Hashtbl.create 256;
      syncs = Hashtbl.create 16;
      rr = -1; stopping = false;
      pacer_stop = Atomic.make false; pacer = None;
      placements;
      batch_seconds =
        Obs.Registry.histogram metrics
          ~help:"shard round-trip seconds per micro-batch"
          "small_router_batch_seconds";
      hedged_c = c0 "small_router_hedged_total" "jobs re-issued to a second shard";
      hedge_wins_c =
        c0 "small_router_hedge_wins_total" "hedged jobs won by the second copy";
      expired_c =
        c0 "small_router_deadline_expired_total"
          "jobs answered with the router's deadline timeout";
      cancels_c = c0 "small_router_cancels_total" "cancel messages sent to shards";
      resends_c =
        c0 "small_router_resends_total" "requests retried after a detected loss";
      revivals_c =
        c0 "small_router_revivals_total" "shards re-adopted after a crash" }
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
  match Sexp.parse line with
  | exception Sexp.Reader.Parse_error msg ->
    let r = error_line ("parse error: " ^ msg) in
    fun () -> r
  | d ->
    (match Server.Job.of_sexp d with
     | Error msg ->
       let r = error_line msg in
       fun () -> r
     | Ok job ->
       let key = placement_key t job in
       let id = Atomic.fetch_and_add t.next_id 1 in
       let now = Unix.gettimeofday () in
       let deadline =
         match job.Server.Job.deadline with
         | Some d -> now +. d
         | None -> infinity
       in
       let it =
         make_item ~id ~line ?client_id:job.Server.Job.wire_id ~job
           ~kind:(`Job key) ~deadline ()
       in
       if deadline <= now then begin
         (* the budget was spent before the job ever reached placement *)
         Obs.Metric.Counter.incr t.expired_c;
         ignore (fulfill it (present it (deadline_line line)));
         fun () -> await it
       end
       else begin
         Mutex.lock t.m;
         if t.stopping then begin
           Mutex.unlock t.m;
           let r = error_line "router is shutting down" in
           fun () -> r
         end
         else
           match choose_initial_locked t key with
           | None ->
             Mutex.unlock t.m;
             let r = present it (shard_down_line line) in
             fun () -> r
           | Some (s, kind) ->
             Hashtbl.replace t.inflight_tbl id it;
             enqueue_locked t s it ~kind;
             Mutex.unlock t.m;
             fun () -> await it
       end)

(* Cancel every in-flight job carrying the client's (id N): answer the
   client with the typed cancelled reply and forward cross-wire cancels
   to any shard still running a copy. *)
let cancel_client t n =
  let cancels = ref [] in
  Mutex.lock t.m;
  Hashtbl.iter
    (fun _ it ->
       if it.client_id = Some n && try_reply it = None then
         if fulfill it (present it (cancelled_line it.line)) then
           List.iter (fun sid -> cancels := (sid, it.id) :: !cancels) it.at)
    t.inflight_tbl;
  Mutex.unlock t.m;
  List.iter
    (fun (sid, id) ->
       match find_shard t sid with
       | Some s ->
         Obs.Metric.Counter.incr t.cancels_c;
         send_control s ("(cancel " ^ string_of_int id ^ ")")
       | None -> ())
    !cancels

let resilience_json t =
  let c = Obs.Metric.Counter.get in
  Server.Json.Obj
    [ ("hedged", Server.Json.Int (c t.hedged_c));
      ("hedge_wins", Server.Json.Int (c t.hedge_wins_c));
      ("deadline_expired", Server.Json.Int (c t.expired_c));
      ("cancels", Server.Json.Int (c t.cancels_c));
      ("resends", Server.Json.Int (c t.resends_c));
      ("revivals", Server.Json.Int (c t.revivals_c)) ]

let stats_json t =
  Mutex.lock t.m;
  let shard_objs =
    Array.to_list t.shards
    |> List.map (fun s ->
        ( s.sid,
          Server.Json.Obj
            [ ("alive", Server.Json.Bool s.alive);
              ("breaker",
               Server.Json.Str (Breaker.state_name (Breaker.state s.breaker)));
              ("breaker_opens", Server.Json.Int (Breaker.opens s.breaker));
              ("ping_ms", Server.Json.Float s.ping_ms);
              ("routed", Server.Json.Int (Obs.Metric.Counter.get s.routed));
              ("hits", Server.Json.Int (Obs.Metric.Counter.get s.hits));
              ("stolen_from", Server.Json.Int (Obs.Metric.Counter.get s.steals));
              ("downs", Server.Json.Int (Obs.Metric.Counter.get s.downs));
              ("queued", Server.Json.Int (Queue.length s.q));
              ("inflight", Server.Json.Int s.inflight) ] ))
  in
  let healthy =
    Array.fold_left (fun n s -> if s.alive then n + 1 else n) 0 t.shards
  in
  let owner_keys = Hashtbl.length t.owners_tbl in
  Mutex.unlock t.m;
  Server.Json.Obj
    [ ("status", Server.Json.Str "ok");
      ("router", Server.Json.Bool true);
      ("shards_total", Server.Json.Int (Array.length t.shards));
      ("shards_healthy", Server.Json.Int healthy);
      (* size of the cache-aware placement map: shard stores must keep
         key lookups cheap for this table to stay warm and useful *)
      ("owner_keys", Server.Json.Int owner_keys);
      ("resilience", resilience_json t);
      ("placement",
       Server.Json.Obj
         (List.map
            (fun (k, c) -> (k, Server.Json.Int (Obs.Metric.Counter.get c)))
            t.placements));
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

let alive_ids t =
  Mutex.lock t.m;
  let ids = Array.to_list t.shards |> List.filter (fun s -> s.alive) in
  Mutex.unlock t.m;
  List.map (fun s -> s.sid) ids

let spawned_pids t =
  Mutex.lock t.m;
  let ps =
    Array.to_list t.shards
    |> List.filter_map (fun s ->
        match s.pid with Some pid when s.alive -> Some (s.sid, pid) | _ -> None)
  in
  Mutex.unlock t.m;
  ps

let is_idle t sid =
  Mutex.lock t.m;
  let r =
    match find_shard t sid with
    | Some s -> s.alive && Queue.is_empty s.q && s.inflight = 0
    | None -> false
  in
  Mutex.unlock t.m;
  r

let probe t sid =
  Mutex.lock t.m;
  let r =
    match find_shard t sid with
    | Some s when s.alive ->
      let id = Atomic.fetch_and_add t.next_id 1 in
      let it =
        make_item ~id ~line:("(ping (id " ^ string_of_int id ^ "))")
          ~kind:`Raw ()
      in
      Queue.add it s.q;
      Condition.broadcast t.cv;
      Some (fun () -> try_reply it)
    | _ -> None
  in
  Mutex.unlock t.m;
  r

let shard_ping_ms t sid =
  Mutex.lock t.m;
  let r =
    match find_shard t sid with
    | Some s when s.ping_ms > 0. -> Some s.ping_ms
    | _ -> None
  in
  Mutex.unlock t.m;
  r

let mark_down t sid =
  Mutex.lock t.m;
  (match find_shard t sid with
   | Some s -> mark_down_locked t s
   | None -> ());
  Mutex.unlock t.m

let kill t sid =
  (match find_shard t sid with
   | Some { pid = Some pid; _ } ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
   | _ -> ());
  mark_down t sid

let revive t sid =
  match find_shard t sid with
  | None -> false
  | Some s ->
    let eligible =
      Mutex.lock t.m;
      let e = (not s.alive) && not t.stopping in
      Mutex.unlock t.m;
      e
    in
    eligible && revive_shard t s

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
