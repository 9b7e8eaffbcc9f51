(* Every routing decision, as one deterministic state machine.  See the
   interface for the inputs, the actions and the invariants. *)

type placement = Cache_aware | Hash_only | Uniform

type config = {
  placement : placement;
  batch_max : int;
  steal_min : int;
  hedge_quantile : float;
  hedge_floor : float;
  stuck_after : float;
  revive : bool;
  breaker : Breaker.config;
}

(* One routed request.  [tried] records the shards that have actually
   seen it (set at send time), so failover and overload draining never
   bounce a job back to a shard that already refused it.  [at] is the
   live view — shards currently holding the item in flight — which is
   what deadline expiry and the hedge winner cancel against. *)
type item = {
  id : int;
  request : string;
  client_id : int option;
  job : Server.Job.t option;
  key : string option;
  deadline : float;
  mutable tried : string list;
  mutable at : string list;
  mutable sent_at : float;
  mutable hedged : bool;
  mutable resends : int;
  mutable answered : bool;
}

type shard = {
  sid : string;
  mutable alive : bool;
  q : item Queue.t;
  mutable pending : item list;
  mutable batch_seq : int;           (* batches sent so far, orders sync pings *)
  mutable batch_started : float;
  mutable sync_sent : float;
  mutable down_at : float;
  mutable ping_ms : float;
  breaker : Breaker.t;
  routed : Obs.Metric.Counter.t;
  hits : Obs.Metric.Counter.t;       (* replies with "cached":true *)
  steals : Obs.Metric.Counter.t;     (* items stolen FROM this shard *)
  downs : Obs.Metric.Counter.t;
  lat : Obs.Metric.Histogram.t;      (* per-item round-trip, feeds hedging *)
  b_state : Obs.Metric.Gauge.t;      (* 0 closed / 1 half-open / 2 open *)
  up_g : Obs.Metric.Gauge.t;
}

type action =
  | Send of { sid : string; items : item list }
  | Answer of { id : int; line : string }
  | Cancel of { sid : string; id : int }
  | Sync_ping of { sid : string; id : int }
  | Revive of string

type input =
  | Submit of { id : int; request : string; job : Server.Job.t; key : string option;
                now : float }
  | Probe of { id : int; sid : string }
  | Idle of { sid : string; now : float }
  | Shard_line of { sid : string; header : Reply.header; line : string; now : float }
  | Down of { sid : string; now : float }
  | Tick of float
  | Cancel_client of int
  | Revived of string

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard array;
  sids : string list;                     (* array order *)
  owners : (string, string) Hashtbl.t;    (* key -> shard whose cache holds it *)
  inflight : (int, item) Hashtbl.t;       (* unanswered jobs, by wire id *)
  syncs : (int, string * int) Hashtbl.t;  (* sync ping id -> (sid, batch_seq) *)
  mutable next_id : int;
  mutable rr : int;                       (* uniform round-robin cursor *)
  mutable kick : bool;
  mutable out : action list;              (* this step's actions, newest first *)
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

(* ---- lines ---- *)

let typed_line ?client_id ?request status error =
  let field name v = Option.to_list (Option.map (fun v -> (name, v)) v) in
  Server.Json.to_string
    (Server.Json.Obj
       (field "id" (Option.map (fun n -> Server.Json.Int n) client_id)
        @ [ ("status", Server.Json.Str status); ("error", Server.Json.Str error) ]
        @ field "request" (Option.map (fun r -> Server.Json.Str r) request)))

let degraded it status error =
  typed_line ?client_id:it.client_id ~request:it.request status error

let shard_down it = degraded it "shard_down" "no healthy shard available"

(* The line sent to a shard: the job re-serialised with the router's wire
   id and the remaining deadline budget (the propagation half of deadline
   enforcement; the shard's scheduler enforces the remainder, [Tick] the
   total).  A probe's request is its own wire line. *)
let wire_line it ~now =
  match it.job with
  | None -> it.request
  | Some job ->
    let deadline =
      if it.deadline = infinity then None
      else Some (Float.max 0. (it.deadline -. now))
    in
    Sexp.to_string
      (Server.Job.to_sexp { job with Server.Job.wire_id = Some it.id; deadline })

(* ---- state ---- *)

let emit t a = t.out <- a :: t.out

let find t sid =
  let rec go i =
    if i >= Array.length t.shards then None
    else if t.shards.(i).sid = sid then Some t.shards.(i)
    else go (i + 1)
  in
  go 0

let shard t sid = Option.get (find t sid)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let count_placement t kind n =
  match List.assoc_opt kind t.placements with
  | Some c -> Obs.Metric.Counter.add c n
  | None -> ()

let enqueue t s it ~kind =
  Obs.Metric.Counter.incr s.routed;
  count_placement t kind 1;
  Queue.add it s.q;
  t.kick <- true

(* The item's one answer, and a (cancel) to every shard still running a
   copy of it.  Callers answer only an unanswered item. *)
let answer t it line =
  it.answered <- true;
  Hashtbl.remove t.inflight it.id;
  emit t (Answer { id = it.id; line });
  List.iter
    (fun sid ->
       Obs.Metric.Counter.incr t.cancels_c;
       emit t (Cancel { sid; id = it.id }))
    it.at

let expire t it =
  Obs.Metric.Counter.incr t.expired_c;
  answer t it (degraded it "timeout" "deadline exceeded in router")

(* ---- placement ---- *)

(* The one candidate walk: the first shard in [pref] that is alive, has
   not yet been sent [it], and is admitted by its breaker.  When every
   breaker refuses, the router fails open on liveness alone — refusing
   all traffic would be worse than risking a slow shard.  Breakers are
   asked in order and the first admitted shard receives the item, so a
   half-open trial slot is never consumed without traffic. *)
let pick t ~now it pref =
  let fresh sid =
    let s = shard t sid in
    s.alive && not (List.mem sid it.tried)
  in
  match List.find_opt (fun sid -> fresh sid && Breaker.allow (shard t sid).breaker ~now) pref with
  | Some sid -> Some (shard t sid)
  | None -> Option.map (shard t) (List.find_opt fresh pref)

(* Where an item goes once its first shard fails, refuses or is slow:
   ring order for its key, array order for a keyless item or under
   uniform placement. *)
let next_candidate t ~now it =
  match it.key with
  | Some key when t.cfg.placement <> Uniform -> pick t ~now it (Ring.owners t.ring key)
  | _ -> pick t ~now it t.sids

(* First placement: the cache owner then the ring owners (cache-aware),
   the ring owners (hash), or round-robin over the live shards (uniform,
   or a job without a key). *)
let place t ~now it =
  match t.cfg.placement, it.key with
  | Uniform, _ | _, None ->
    let alive = List.filter (fun sid -> (shard t sid).alive) t.sids in
    if alive = [] then None
    else begin
      t.rr <- t.rr + 1;
      let n = List.length alive in
      let pref = List.init n (fun i -> List.nth alive ((t.rr + i) mod n)) in
      Option.map (fun s -> (s, "uniform")) (pick t ~now it pref)
    end
  | (Cache_aware | Hash_only), Some key ->
    let ring = Ring.owners t.ring key in
    let cached =
      if t.cfg.placement = Cache_aware then Hashtbl.find_opt t.owners key else None
    in
    let label (s : shard) =
      if Some s.sid = cached then "cache"
      else if Some s.sid = List.nth_opt ring 0 then "hash"
      else "failover"
    in
    let pref = match cached with Some sid -> sid :: ring | None -> ring in
    Option.map (fun s -> (s, label s)) (pick t ~now it pref)

(* [s] no longer holds [it]. *)
let unhold s it =
  s.pending <- List.filter (fun p -> p != it) s.pending;
  it.at <- List.filter (fun sid -> sid <> s.sid) it.at

(* Answer [it] with a degraded [line], unless a live shard still runs a
   copy of it: that copy's reply answers it. *)
let give_up t it line =
  if not (List.exists (fun sid -> (shard t sid).alive) it.at) then answer t it line

(* The one release: [s] no longer holds [it] (it died, lost the item or
   refused it), so the item moves to its next candidate under placement
   [kind], or is answered [fallback] when none remains.  An item that a
   live shard still runs (the first shard of a hedged item whose hedge
   target died) is left to that copy ({!give_up}).  A probe is never
   rerouted. *)
let release t ~now s it ~kind ~fallback =
  unhold s it;
  if not it.answered then
    match if it.job = None then None else next_candidate t ~now it with
    | Some s' -> enqueue t s' it ~kind
    | None -> give_up t it fallback

(* ---- inputs ---- *)

let submit t ~now ~id ~request ~(job : Server.Job.t) ~key =
  let deadline =
    match job.deadline with Some d -> now +. d | None -> infinity
  in
  let it =
    { id; request; client_id = job.wire_id; job = Some job; key; deadline;
      tried = []; at = []; sent_at = 0.; hedged = false; resends = 0;
      answered = false }
  in
  (* a budget spent before the job ever reached placement *)
  if deadline <= now then expire t it
  else
    match place t ~now it with
    | None -> answer t it (shard_down it)
    | Some (s, kind) ->
      Hashtbl.replace t.inflight id it;
      enqueue t s it ~kind

let probe t ~id s =
  let it =
    { id; request = "(ping (id " ^ string_of_int id ^ "))"; client_id = None;
      job = None; key = None; deadline = infinity; tried = []; at = [];
      sent_at = 0.; hedged = false; resends = 0; answered = false }
  in
  if s.alive then begin
    Queue.add it s.q;
    t.kick <- true
  end
  else answer t it (shard_down it)

(* Steal half the longest queue (>= steal_min) onto idle shard [s],
   preferring items the victim holds no cached result for — stealing a
   cache-owned key would convert its hit into a miss on the thief. *)
let steal t s =
  if t.cfg.steal_min <= 0 then false
  else begin
    let best = ref None in
    Array.iter
      (fun v ->
         if v != s && v.alive then begin
           let len = Queue.length v.q in
           if len >= t.cfg.steal_min then
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
        match it.key with
        | Some key -> Hashtbl.find_opt t.owners key = Some v.sid
        | None -> false
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

(* Pop the next live item: answered husks are dropped, queued items past
   their deadline are answered with the typed timeout right here —
   running dead-on-arrival work would burn a shard slot for a reply
   nobody is waiting on. *)
let rec pop_live t ~now s =
  match Queue.take_opt s.q with
  | None -> None
  | Some it when it.answered -> pop_live t ~now s
  | Some it when now > it.deadline -> expire t it; pop_live t ~now s
  | Some it -> Some it

(* The next micro-batch: a probe travels alone (its reply count differs
   from a job's), jobs group up to batch_max.  Marks each item as tried
   at this shard.  May return [] when the queue held only husks. *)
let take_batch t ~now s =
  match pop_live t ~now s with
  | None -> []
  | Some first ->
    first.tried <- s.sid :: first.tried;
    if first.job = None then [ first ]
    else
      let rec grab acc n =
        if n >= t.cfg.batch_max || Queue.is_empty s.q || (Queue.peek s.q).job = None
        then List.rev acc
        else
          match pop_live t ~now s with
          | None -> List.rev acc
          | Some it ->
            it.tried <- s.sid :: it.tried;
            grab (it :: acc) (n + 1)
      in
      first :: grab [] 1

let idle t ~now s =
  let rec next () =
    if Queue.is_empty s.q && not (steal t s) then ()
    else
      match take_batch t ~now s with
      | [] -> next ()
      | batch ->
        s.pending <- batch;
        s.batch_seq <- s.batch_seq + 1;
        s.batch_started <- now;
        s.sync_sent <- 0.;
        List.iter (fun it -> it.sent_at <- now; it.at <- s.sid :: it.at) batch;
        emit t (Send { sid = s.sid; items = batch })
  in
  if s.alive && s.pending = [] then next ()

(* A shard's reply for an item in flight there: the first reply wins,
   an [overloaded] one drains the item to a healthy shard instead (the
   overload ladder, cluster rung), and the winner owns the key's cached
   result now (hinted handoff — hedge target or not). *)
let reply t ~now s it (h : Reply.header) line =
  let rtt = now -. it.sent_at in
  match it.job with
  | None ->
    unhold s it;
    Breaker.record_rtt s.breaker ~now rtt;
    s.ping_ms <- rtt *. 1000.;
    answer t it (Reply.for_client h line)
  | Some _ ->
    if it.sent_at > 0. then Obs.Metric.Histogram.record s.lat rtt;
    Breaker.record_success s.breaker;
    let line = Reply.for_client ?client_id:it.client_id h line in
    if h.status = `Overloaded then release t ~now s it ~kind:"drain" ~fallback:line
    else begin
      unhold s it;
      if not it.answered then begin
        answer t it line;
        (match it.key with
         | Some key when h.status = `Ok ->
           if Hashtbl.length t.owners > owners_cap then Hashtbl.reset t.owners;
           Hashtbl.replace t.owners key s.sid
         | _ -> ());
        if h.cached then Obs.Metric.Counter.incr s.hits;
        if it.hedged then Obs.Metric.Counter.incr t.hedge_wins_c
      end
    end

(* A sync pong arrived while requests sent before it are still pending:
   the shard's ordered reply stream proves those requests never reached
   it (a drop, a partition, a torn write).  Each is re-sent a bounded
   number of times, then answered shard_down.  A lost probe stays
   unanswered: the health monitor's deadline is the conviction path. *)
let flush_lost t ~now s =
  Breaker.record_failure s.breaker ~now;
  List.iter
    (fun it ->
       if it.job = None || it.answered then unhold s it
       else begin
         it.resends <- it.resends + 1;
         Obs.Metric.Counter.incr t.resends_c;
         if it.resends > max_resends then begin
           unhold s it;
           give_up t it (shard_down it)
         end
         else begin
           (* the loss was transient: this shard may be retried *)
           it.tried <- List.filter (fun sid -> sid <> s.sid) it.tried;
           release t ~now s it ~kind:"resend" ~fallback:(shard_down it)
         end
       end)
    s.pending

(* Replies are matched by wire id, so they may arrive out of order
   (reorder chaos), twice (dup chaos) or not at all (drop, partition).
   An id-less line from an ordered stream answers the oldest pending
   request. *)
let shard_line t ~now s (h : Reply.header) line =
  let busy = s.pending <> [] in
  (if h.id < 0 then
     match s.pending with it :: _ -> reply t ~now s it h line | [] -> ()
   else
     match List.find_opt (fun it -> it.id = h.id) s.pending with
     | Some it -> reply t ~now s it h line
     | None ->
       (match Hashtbl.find_opt t.syncs h.id with
        | Some (_, seq) ->
          Hashtbl.remove t.syncs h.id;
          if seq >= s.batch_seq && s.pending <> [] then flush_lost t ~now s
        | None -> ()));   (* a dup-chaos echo *)
  if busy && s.pending = [] then
    Obs.Metric.Histogram.record t.batch_seconds (now -. s.batch_started)

let down t ~now s =
  if s.alive then begin
    s.alive <- false;
    s.down_at <- now;
    Obs.Metric.Counter.incr s.downs;
    Obs.Metric.Gauge.set s.up_g 0;
    (* conviction: a dead shard's breaker opens immediately, so placement
       avoids it the moment it revives until it proves itself *)
    Breaker.force_open s.breaker ~now;
    (* sync pings in flight toward a dead shard will never pong *)
    let stale =
      Hashtbl.fold (fun id (sid, _) acc -> if sid = s.sid then id :: acc else acc) t.syncs []
    in
    List.iter (Hashtbl.remove t.syncs) stale
  end;
  let queued = List.of_seq (Queue.to_seq s.q) in
  Queue.clear s.q;
  List.iter
    (fun it -> release t ~now s it ~kind:"failover" ~fallback:(shard_down it))
    (queued @ s.pending);
  t.kick <- true

(* The hedge trigger for a shard: twice its observed per-item latency
   quantile, floored — hedging against noise would double load for
   nothing.  Needs a minimum sample count before it trusts the
   histogram. *)
let hedge_trigger t s =
  let snap = Obs.Metric.Histogram.snapshot s.lat in
  if Obs.Metric.Histogram.count snap < 16 then infinity
  else
    Float.max t.cfg.hedge_floor
      (2. *. Obs.Metric.Histogram.quantile snap t.cfg.hedge_quantile)

(* Expire deadlines, hedge slow in-flight items, sync-ping silent shards
   so lost messages surface, refresh breaker gauges and pick revival
   candidates. *)
let tick t ~now =
  let live = Hashtbl.fold (fun _ it acc -> it :: acc) t.inflight [] in
  List.iter
    (fun it ->
       if now > it.deadline then expire t it
       else if t.cfg.hedge_quantile > 0. && not it.hedged && it.sent_at > 0. then
         match it.at with
         | [ sid ] when now -. it.sent_at > hedge_trigger t (shard t sid) ->
           (match next_candidate t ~now it with
            | Some s' ->
              it.hedged <- true;
              Obs.Metric.Counter.incr t.hedged_c;
              enqueue t s' it ~kind:"hedge"
            | None -> ())
         | _ -> ())
    live;
  Array.iter
    (fun s ->
       if s.alive && s.pending <> []
          && now -. Float.max s.batch_started s.sync_sent > t.cfg.stuck_after
       then begin
         let id = fresh_id t in
         Hashtbl.replace t.syncs id (s.sid, s.batch_seq);
         s.sync_sent <- now;
         emit t (Sync_ping { sid = s.sid; id })
       end;
       Breaker.note_queue_depth s.breaker (Queue.length s.q);
       Obs.Metric.Gauge.set s.b_state
         (Breaker.state_code (Breaker.state s.breaker ~now));
       Obs.Metric.Gauge.set s.up_g (if s.alive then 1 else 0);
       if t.cfg.revive && (not s.alive) && now -. s.down_at > 0.25 then begin
         s.down_at <- now;   (* the next attempt backs off from this one *)
         emit t (Revive s.sid)
       end)
    t.shards

let cancel_client t n =
  Hashtbl.fold (fun _ it acc -> if it.client_id = Some n then it :: acc else acc) t.inflight []
  |> List.iter (fun it -> answer t it (degraded it "cancelled" "cancelled by client"))

let revived t s =
  if not s.alive then begin
    s.alive <- true;
    s.pending <- [];
    s.sync_sent <- 0.;
    Obs.Metric.Counter.incr t.revivals_c;
    Obs.Metric.Gauge.set s.up_g 1;
    t.kick <- true
  end

let step t input =
  (match input with
   | Submit { id; request; job; key; now } -> submit t ~now ~id ~request ~job ~key
   | Probe { id; sid } -> probe t ~id (shard t sid)
   | Idle { sid; now } -> idle t ~now (shard t sid)
   | Shard_line { sid; header; line; now } -> shard_line t ~now (shard t sid) header line
   | Down { sid; now } -> down t ~now (shard t sid)
   | Tick now -> tick t ~now
   | Cancel_client n -> cancel_client t n
   | Revived sid -> revived t (shard t sid));
  let out = List.rev t.out in
  t.out <- [];
  out

let take_kick t =
  let k = t.kick in
  t.kick <- false;
  k

(* ---- construction and views ---- *)

let create ?(vnodes = 64) ~registry (cfg : config) sids =
  let shard_of sid =
    let c name help =
      Obs.Registry.counter registry ~help ~labels:[ ("shard", sid) ] name
    in
    let opens =
      Obs.Registry.counter registry
        ~help:"circuit-breaker closed-to-open transitions"
        ~labels:[ ("shard", sid) ] "small_breaker_open_total"
    in
    { sid; alive = true; q = Queue.create (); pending = []; batch_seq = 0;
      batch_started = 0.; sync_sent = 0.; down_at = 0.; ping_ms = 0.;
      breaker =
        Breaker.create ~config:cfg.breaker
          ~on_open:(fun () -> Obs.Metric.Counter.incr opens) ();
      routed = c "small_router_requests_total" "requests routed to this shard";
      hits = c "small_router_hits_total" "replies served from this shard's cache";
      steals = c "small_router_steals_total" "queued jobs stolen from this shard";
      downs = c "small_router_shard_down_total" "times this shard was marked down";
      lat =
        Obs.Registry.histogram registry
          ~help:"per-item shard round-trip seconds"
          ~labels:[ ("shard", sid) ]
          ~bounds:Obs.Metric.Histogram.fine_latency_bounds
          "small_router_shard_seconds";
      b_state =
        Obs.Registry.gauge registry
          ~help:"circuit-breaker state: 0 closed, 1 half-open, 2 open"
          ~labels:[ ("shard", sid) ] "small_breaker_state";
      up_g =
        Obs.Registry.gauge registry ~help:"1 while the shard is considered alive"
          ~labels:[ ("shard", sid) ] "small_shard_up" }
  in
  let placements =
    List.map
      (fun kind ->
         ( kind,
           Obs.Registry.counter registry
             ~help:"routing decisions, by placement kind"
             ~labels:[ ("kind", kind) ] "small_router_placement_total" ))
      [ "cache"; "hash"; "uniform"; "failover"; "drain"; "steal"; "hedge";
        "resend" ]
  in
  let c0 name help = Obs.Registry.counter registry ~help name in
  { cfg; ring = Ring.create ~vnodes sids;
    shards = Array.of_list (List.map shard_of sids); sids;
    owners = Hashtbl.create 1024; inflight = Hashtbl.create 256;
    syncs = Hashtbl.create 16; next_id = 1; rr = -1; kick = false; out = [];
    placements;
    batch_seconds =
      Obs.Registry.histogram registry
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

let shards t = t.shards
let awaiting t sid = (shard t sid).pending <> []
let owner t key = Hashtbl.find_opt t.owners key
let owner_count t = Hashtbl.length t.owners
let unanswered t = Hashtbl.fold (fun _ it acc -> it :: acc) t.inflight []

let placement_counts t =
  List.map (fun (k, c) -> (k, Obs.Metric.Counter.get c)) t.placements

let resilience t =
  let c = Obs.Metric.Counter.get in
  [ ("hedged", c t.hedged_c); ("hedge_wins", c t.hedge_wins_c);
    ("deadline_expired", c t.expired_c); ("cancels", c t.cancels_c);
    ("resends", c t.resends_c); ("revivals", c t.revivals_c) ]
