(* Tests for the cluster resilience layer: the seeded chaos battery
   (network delay/drop/dup/reorder/partition plus slow-shard and
   crash-restart process faults) checked against a fault-free oracle,
   deadline propagation and router-side expiry, wire cancellation,
   hedged execution, circuit-breaker state, shard death mid-flight, the
   load-harness timeout accounting, and socket-shard revival.

   The chaos invariant, from the fault model: under any seeded plan,
   every submitted job gets exactly one reply; an [ok] reply is
   byte-identical to the fault-free run (modulo the answering shard,
   wall-clock, and cache flags); every other reply is one of the typed
   degradations.  No job is ever acked-and-lost. *)

module Router = Cluster.Router
module Breaker = Cluster.Breaker
module LG = Cluster.Loadgen

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---- reply normalisation (see test_routing.ml) ---- *)

let strip name line =
  let marker = Printf.sprintf ",\"%s\":" name in
  let mn = String.length marker in
  let rec find i =
    if i + mn > String.length line then line
    else if String.sub line i mn = marker then begin
      let j = ref (i + mn) in
      if !j < String.length line && line.[!j] = '"' then begin
        incr j;
        while !j < String.length line && line.[!j] <> '"' do incr j done;
        incr j
      end
      else
        while !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}' do
          incr j
        done;
      String.sub line 0 i ^ String.sub line !j (String.length line - !j)
    end
    else find (i + 1)
  in
  find 0

(* Fields that legitimately differ between a faulted routed run and the
   clean direct one: the answering shard, wall-clock, and whether the
   result came from a cache (a re-run or hedge may warm it anywhere). *)
let normalise line =
  let decache s =
    let marker = "\"cached\":true" in
    let mn = String.length marker in
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    while !i < String.length s do
      if !i + mn <= String.length s && String.sub s !i mn = marker then begin
        Buffer.add_string b "\"cached\":false";
        i := !i + mn
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  decache (strip "elapsed" (strip "shard" line))

let member path json =
  List.fold_left
    (fun acc name ->
       match acc with
       | Some j -> Server.Json.member name j
       | None -> None)
    (Some json) path

let int_at path json =
  match member path json with
  | Some (Server.Json.Int n) -> n
  | _ -> Alcotest.fail ("missing int field " ^ String.concat "." path)

(* ---- in-process shards ---- *)

let in_process_shard ?fault sid =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let svc =
    Server.Service.create ?fault ~shard_id:sid ~workers:2 ~queue_capacity:32 ()
  in
  let d =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr b in
        let oc = Unix.out_channel_of_descr (Unix.dup b) in
        ignore (Server.Service.serve_channels svc ic oc);
        Server.Service.shutdown svc;
        (try close_out oc with Sys_error _ -> ());
        (try close_in ic with Sys_error _ -> ()))
  in
  let ic = Unix.in_channel_of_descr a in
  let oc = Unix.out_channel_of_descr (Unix.dup a) in
  ((sid, Router.Channels (ic, oc)), d, svc)

let with_router ?(n = 2) ?placement ?steal_min ?batch_max ?fault
    ?hedge_quantile ?hedge_floor ?breaker ?stuck_after ?svc_fault f =
  let shards, domains =
    List.split
      (List.init n (fun i ->
           let shard, d, _ = in_process_shard ?fault:svc_fault (Printf.sprintf "s%d" i) in
           (shard, d)))
  in
  let t =
    Router.create ?placement ?steal_min ?batch_max ?fault ?hedge_quantile
      ?hedge_floor ?breaker ?stuck_after ~shards ()
  in
  Fun.protect
    ~finally:(fun () ->
        Router.shutdown t;
        List.iter Domain.join domains)
    (fun () -> f t)

(* ---- jobs and the fault-free oracle ---- *)

let saved_synth_trace =
  lazy
    (let path = Filename.temp_file "resilience" ".smtb" in
     Trace.Io.save ~format:Trace.Io.Binary path
       (Trace.Synth.generate { Trace.Synth.default with length = 3000 });
     path)

let job_line ?deadline ?id seed =
  let extra =
    (match deadline with
     | Some d -> Printf.sprintf " (deadline %g)" d
     | None -> "")
    ^ (match id with Some n -> Printf.sprintf " (id %d)" n | None -> "")
  in
  Printf.sprintf "(simulate (trace-file \"%s\") (size 64) (seed %d)%s)"
    (Lazy.force saved_synth_trace) seed extra

(* The oracle: each seed's reply from a clean single-process service,
   normalised.  Computed once; chaos runs must reproduce these bytes. *)
let oracle =
  lazy
    (let svc = Server.Service.create ~workers:2 ~queue_capacity:32 () in
     Fun.protect
       ~finally:(fun () -> Server.Service.shutdown svc)
       (fun () ->
          let tbl = Hashtbl.create 64 in
          for seed = 0 to 63 do
            match Server.Service.handle_line svc (job_line seed) with
            | [ reply ] -> Hashtbl.replace tbl seed (normalise reply)
            | _ -> Alcotest.fail "oracle: one reply expected"
          done;
          tbl))

let expect_seed seed = Hashtbl.find (Lazy.force oracle) seed

let typed_statuses =
  [ "\"status\":\"overloaded\""; "\"status\":\"shard_down\"";
    "\"status\":\"timeout\""; "\"status\":\"cancelled\"" ]

let check_reply ~what seed reply =
  if contains reply "\"status\":\"ok\"" then
    Alcotest.(check string)
      (Printf.sprintf "%s: ok reply for seed %d matches the oracle" what seed)
      (expect_seed seed) (normalise reply)
  else
    Alcotest.(check bool)
      (Printf.sprintf "%s: non-ok reply for seed %d is typed (%s)" what seed reply)
      true
      (List.exists (contains reply) typed_statuses)

(* ---- the chaos battery ---- *)

(* 64 seeded plans x 16 jobs = 1024 scenarios: every routed send draws
   network chaos, every dispatch draws process chaos, and each job must
   still resolve to oracle bytes or a typed degradation.  Crash-restart
   on a [Channels] shard is a permanent death (nothing respawns a
   socketpair), so a run can legitimately end with both shards down —
   the typed [shard_down] arm — but most runs complete ok. *)
let chaos_config seed =
  { Fault.Plan.default with
    Fault.Plan.seed;
    net_delay = 0.10; net_delay_s = 0.002;
    net_drop = 0.05;
    net_dup = 0.05;
    net_reorder = 0.05;
    partition = 0.02; partition_s = 0.05;
    slow_shard = 0.05; slow_s = 0.02;
    crash_restart = 0.02 }

let test_chaos_battery () =
  let runs = 64 and jobs = 16 in
  let scenarios = ref 0 in
  let ok_total = ref 0 in
  for run = 0 to runs - 1 do
    let plan = Fault.Plan.create (chaos_config run) in
    with_router ~n:2 ~fault:plan ~stuck_after:0.05 ~hedge_quantile:0.5
      ~hedge_floor:0.02 @@ fun t ->
    let joins =
      List.init jobs (fun seed ->
          (seed, Router.submit_line t (job_line ~deadline:30.0 seed)))
    in
    List.iter
      (fun (seed, join) ->
         let reply = join () in
         incr scenarios;
         if contains reply "\"status\":\"ok\"" then incr ok_total;
         check_reply ~what:(Printf.sprintf "plan %d" run) seed reply)
      joins
  done;
  Alcotest.(check bool)
    (Printf.sprintf "battery covered %d scenarios (>= 1000)" !scenarios)
    true (!scenarios >= 1000);
  Alcotest.(check bool)
    (Printf.sprintf "most scenarios complete ok (%d/%d)" !ok_total !scenarios)
    true (!ok_total > !scenarios / 2)

(* ---- the deterministic simulation battery ---- *)

(* The router core alone, in one thread, on a simulated clock and
   network.  Simulated shards answer every job from the fault-free
   oracle, in request order per connection, on two workers each.  The
   plan's seed draws everything else: the network and process faults
   through [Fault.Plan] at the same sites the router's shell uses
   (delay, drop, dup, reorder, one-way partition, slow shard, crash),
   and through its own [Random.State] the service times, overloaded
   replies, restarts, false convictions and client cancels.  The core
   is stepped one input at a time and five invariants are checked after
   every step; a failure names the plan seed, and [sim_run seed] replays
   it exactly. *)

module Core = Cluster.Router_core
module Reply = Cluster.Reply

type sim_msg = Job of int | Cancel_id of int | Ping of int

type sim_event =
  | Submit_job of int                                  (* job index *)
  | Arrive of { shard : int; conn : int; msg : sim_msg }
  | Emit of int                                        (* shard writes ready replies *)
  | Line of { shard : int; conn : int; line : string } (* reaches the router *)
  | Lost of { shard : int; conn : int }                (* the connection broke *)
  | Restart of int
  | Convict of int                                     (* health monitor's verdict *)
  | Client_cancel of int                               (* client id *)
  | Pacer

type slot = { wid : int; mutable ready : float; mutable reply : string }

type sim_shard = {
  name : string;
  mutable up : bool;
  mutable serving : int;              (* connection it answers on; -1 none *)
  slots : slot Queue.t;               (* requests on it, in arrival order *)
  free_at : float array;              (* per worker *)
  cache : (int, unit) Hashtbl.t;      (* seeds computed here *)
  mutable link_in : float;            (* last delivery toward the shard *)
  mutable link_out : float;           (* last delivery toward the router *)
  mutable partition_until : float;
}

type sim_job = { seed : int; client : int; deadline : float; mutable wire : int }

module Events = Map.Make (struct
    type t = float * int
    let compare = compare
  end)

type sim = {
  plan_seed : int;
  rng : Random.State.t;
  faults : Fault.Plan.t;
  core : Core.t;
  nodes : sim_shard array;
  conn : int array;                   (* router's connection per shard; -1 none *)
  mutable next_conn : int;
  mutable now : float;
  mutable events : sim_event Events.t;
  mutable seq : int;
  jobs : sim_job array;
  by_wire : (int, int) Hashtbl.t;     (* wire id -> job index *)
  answers : (int, string) Hashtbl.t;  (* wire id -> the client's line *)
  (* the in-flight model, kept apart from the core's own bookkeeping *)
  outstanding : int list array;
  batches : int array;
  syncs : (int, int * int) Hashtbl.t; (* sync id -> shard, batch number *)
  trace : Buffer.t;
}

let sim_jobs = 64
let sim_latency = 0.0001
let sim_tick = 0.0125   (* the shell's pacer period for stuck_after 0.05 *)

let sim_fail w msg =
  Alcotest.fail
    (Printf.sprintf "simulation plan %d at t=%.4f: %s (replay: sim_run %d)"
       w.plan_seed w.now msg w.plan_seed)

let at w time ev =
  w.seq <- w.seq + 1;
  w.events <- Events.add (time, w.seq) ev w.events

let node_index w sid =
  let rec go i = if w.nodes.(i).name = sid then i else go (i + 1) in
  go 0

let oracle_tail seed =
  let o = expect_seed seed in
  String.sub o 1 (String.length o - 1)

let wire_reply wid status =
  Printf.sprintf "{\"id\":%d,\"status\":\"%s\",\"error\":\"simulated\"}" wid status

(* ---- the simulated shards ---- *)

let deliver_to_shard w i msgs ~delay =
  let n = w.nodes.(i) in
  let t = Float.max (w.now +. sim_latency +. delay) n.link_in in
  n.link_in <- t;
  List.iter (fun msg -> at w t (Arrive { shard = i; conn = w.conn.(i); msg })) msgs

let add_slot w n wid ~ready reply =
  Queue.add { wid; ready; reply } n.slots;
  at w (Float.max ready w.now) (Emit (node_index w n.name))

let arrive w i msg =
  let n = w.nodes.(i) in
  match msg with
  | Ping id ->
    add_slot w n id ~ready:w.now
      (Printf.sprintf "{\"id\":%d,\"status\":\"ok\",\"pong\":true}" id)
  | Cancel_id id ->
    Queue.iter
      (fun s ->
         if s.wid = id && s.ready > w.now then begin
           s.ready <- w.now;
           s.reply <- wire_reply id "cancelled"
         end)
      n.slots;
    at w w.now (Emit i)
  | Job wid ->
    let job = w.jobs.(Hashtbl.find w.by_wire wid) in
    if Random.State.float w.rng 1.0 < 0.03 then
      add_slot w n wid ~ready:w.now (wire_reply wid "overloaded")
    else begin
      let k = if n.free_at.(0) <= n.free_at.(1) then 0 else 1 in
      let service =
        if Hashtbl.mem n.cache job.seed then 0.0003
        else 0.002 +. Random.State.float w.rng 0.004
      in
      let done_at = Float.max w.now n.free_at.(k) +. service in
      n.free_at.(k) <- done_at;
      Hashtbl.replace n.cache job.seed ();
      add_slot w n wid ~ready:done_at
        (Printf.sprintf "{\"id\":%d,%s" wid (oracle_tail job.seed))
    end

(* Replies leave in request order: a ready reply waits behind an
   earlier one still running. *)
let emit_ready w i =
  let n = w.nodes.(i) in
  let rec go () =
    match Queue.peek_opt n.slots with
    | Some s when s.ready <= w.now ->
      ignore (Queue.pop n.slots);
      let t = Float.max (w.now +. sim_latency) n.link_out in
      n.link_out <- t;
      at w t (Line { shard = i; conn = n.serving; line = s.reply });
      go ()
    | Some s -> at w s.ready (Emit i)
    | None -> ()
  in
  go ()

let drop_session n =
  n.serving <- -1;
  Queue.clear n.slots;
  Array.fill n.free_at 0 (Array.length n.free_at) 0.

let crash w i =
  let n = w.nodes.(i) in
  if n.up then begin
    if n.serving >= 0 then at w (w.now +. 0.0002) (Lost { shard = i; conn = n.serving });
    n.up <- false;
    drop_session n;
    (* most crashed shards restart; some stay dead *)
    if Random.State.float w.rng 1.0 < 0.8 then
      at w (w.now +. 0.05 +. Random.State.float w.rng 0.35) (Restart i)
  end

(* ---- the invariants ---- *)

let held w =
  let ids = Hashtbl.create 64 in
  Array.iter
    (fun (s : Core.shard) ->
       if s.alive then begin
         Queue.iter (fun (it : Core.item) -> Hashtbl.replace ids it.id ()) s.q;
         List.iter (fun (it : Core.item) -> Hashtbl.replace ids it.id ()) s.pending
       end)
    (Core.shards w.core);
  ids

let check_invariants w =
  let ids = held w in
  let unanswered = Hashtbl.create 64 in
  List.iter (fun (it : Core.item) -> Hashtbl.replace unanswered it.id ()) (Core.unanswered w.core);
  Array.iter
    (fun j ->
       if j.wire > 0 && not (Hashtbl.mem w.answers j.wire) then begin
         if not (Hashtbl.mem ids j.wire) then
           sim_fail w (Printf.sprintf "job %d is unanswered but neither queued nor in flight at a live shard" j.wire);
         if not (Hashtbl.mem unanswered j.wire) then
           sim_fail w (Printf.sprintf "job %d is unanswered but the core forgot it" j.wire)
       end)
    w.jobs;
  Array.iteri
    (fun i (s : Core.shard) ->
       let core = List.sort compare (List.map (fun (it : Core.item) -> it.id) s.pending) in
       if core <> List.sort compare w.outstanding.(i) then
         sim_fail w
           (Printf.sprintf "%s holds %d in flight, the model %d" s.sid (List.length core)
              (List.length w.outstanding.(i))))
    (Core.shards w.core);
  Array.iter
    (fun j ->
       match Core.owner w.core (Printf.sprintf "key-%d" j.seed) with
       | Some sid when not (Array.exists (fun n -> n.name = sid) w.nodes) ->
         sim_fail w ("an owner key names " ^ sid)
       | _ -> ())
    w.jobs

(* No [shard_down] answer while a live shard still runs a copy of the
   item: an answer cancels the copy at every shard its item is [at], so
   a cancel in the same step toward a shard the core holds alive is a
   copy that would have answered. *)
let check_no_early_shard_down w actions =
  let alive sid =
    Array.exists (fun (s : Core.shard) -> s.sid = sid && s.alive) (Core.shards w.core)
  in
  List.iter
    (function
      | Core.Answer { id; line } when (Reply.read line).status = `Shard_down ->
        List.iter
          (function
            | Core.Cancel { sid; id = c } when c = id && alive sid ->
              sim_fail w
                (Printf.sprintf "job %d answered shard_down while live shard %s runs it" id sid)
            | _ -> ())
          actions
      | _ -> ())
    actions

let show_action = function
  | Core.Send { sid; items } ->
    Printf.sprintf "send %s %s" sid
      (String.concat "," (List.map (fun (it : Core.item) -> string_of_int it.id) items))
  | Core.Answer { id; line } -> Printf.sprintf "answer %d %s" id line
  | Core.Cancel { sid; id } -> Printf.sprintf "cancel %s %d" sid id
  | Core.Sync_ping { sid; id } -> Printf.sprintf "sync %s %d" sid id
  | Core.Revive sid -> "revive " ^ sid

(* One core step, its actions carried out on the simulated network and
   checked against the model. *)
let rec sim_step w input =
  (match input with
   | Core.Down { sid; _ } | Core.Revived sid ->
     let i = node_index w sid in
     w.outstanding.(i) <- [];
     Hashtbl.filter_map_inplace (fun _ (j, b) -> if j = i then None else Some (j, b)) w.syncs
   | Core.Shard_line { sid; header; _ } ->
     let i = node_index w sid in
     if List.mem header.id w.outstanding.(i) then
       w.outstanding.(i) <- List.filter (( <> ) header.id) w.outstanding.(i)
     else (
       match Hashtbl.find_opt w.syncs header.id with
       | Some (_, b) ->
         Hashtbl.remove w.syncs header.id;
         if b = w.batches.(i) then w.outstanding.(i) <- []
       | None -> ())
   | _ -> ());
  let actions = Core.step w.core input in
  check_no_early_shard_down w actions;
  Printf.bprintf w.trace "%h\n" w.now;
  List.iter (fun a -> Buffer.add_string w.trace (show_action a); Buffer.add_char w.trace '\n') actions;
  List.iter (perform_sim w) actions;
  (match input with
   | Core.Shard_line { sid; header; line; _ } when Reply.((read line).status) = `Ok ->
     (match Hashtbl.find_opt w.by_wire header.id with
      | Some j when List.exists (function Core.Answer { id; _ } -> id = header.id | _ -> false) actions ->
        let key = Printf.sprintf "key-%d" w.jobs.(j).seed in
        if Core.owner w.core key <> Some sid then
          sim_fail w (Printf.sprintf "an ok reply from %s won %s, but the owner table disagrees" sid key)
      | _ -> ())
   | _ -> ());
  check_invariants w

and perform_sim w = function
  | Core.Answer { id; line } ->
    if Hashtbl.mem w.answers id then sim_fail w (Printf.sprintf "job %d answered twice" id);
    Hashtbl.replace w.answers id line
  | Core.Send { sid; items } ->
    let i = node_index w sid in
    List.iter
      (fun (it : Core.item) ->
         if Hashtbl.mem w.answers it.id then
           sim_fail w (Printf.sprintf "job %d sent after its answer" it.id))
      items;
    w.outstanding.(i) <- List.map (fun (it : Core.item) -> it.id) items;
    w.batches.(i) <- w.batches.(i) + 1;
    let n = w.nodes.(i) in
    if (not n.up) || n.serving <> w.conn.(i) then at w w.now (Lost { shard = i; conn = w.conn.(i) })
    else begin
      let msgs = List.map (fun (it : Core.item) -> Job it.id) items in
      (match Fault.Plan.on_net w.faults ~site:("net." ^ sid) with
       | Some (Fault.Plan.Net_partition d) -> n.partition_until <- w.now +. d
       | Some Fault.Plan.Net_drop -> ()
       | _ when w.now < n.partition_until -> ()
       | Some (Fault.Plan.Net_delay d) -> deliver_to_shard w i msgs ~delay:d
       | Some Fault.Plan.Net_dup ->
         deliver_to_shard w i msgs ~delay:0.;
         deliver_to_shard w i msgs ~delay:0.
       | Some Fault.Plan.Net_reorder -> deliver_to_shard w i (List.rev msgs) ~delay:0.
       | None -> deliver_to_shard w i msgs ~delay:0.);
      match Fault.Plan.on_shard w.faults ~site:("proc." ^ sid) with
      | Some (Fault.Plan.Slow_shard d) ->
        Array.iteri (fun k f -> n.free_at.(k) <- Float.max f w.now +. d) n.free_at
      | Some Fault.Plan.Crash_restart -> crash w i
      | None -> ()
    end
  | Core.Cancel { sid; id } -> control w sid (Cancel_id id)
  | Core.Sync_ping { sid; id } ->
    Hashtbl.replace w.syncs id (node_index w sid, w.batches.(node_index w sid));
    control w sid (Ping id)
  | Core.Revive sid ->
    let i = node_index w sid in
    let n = w.nodes.(i) in
    if n.up && n.serving < 0 then begin
      w.next_conn <- w.next_conn + 1;
      n.serving <- w.next_conn;
      w.conn.(i) <- w.next_conn;
      sim_step w (Core.Revived sid)
    end

and control w sid msg =
  let i = node_index w sid in
  if w.conn.(i) >= 0 && w.now >= w.nodes.(i).partition_until then
    deliver_to_shard w i [ msg ] ~delay:0.

(* The shell's dispatchers: every live shard with nothing in flight asks
   for its next batch. *)
let dispatch w =
  Array.iter
    (fun (s : Core.shard) ->
       if s.alive && not (Core.awaiting w.core s.sid) then
         sim_step w (Core.Idle { sid = s.sid; now = w.now }))
    (Core.shards w.core)

let handle w = function
  | Submit_job j ->
    let job = w.jobs.(j) in
    let line = job_line ~deadline:job.deadline ~id:job.client job.seed in
    let parsed = match Server.Job.parse line with Ok p -> p | Error e -> Alcotest.fail e in
    let id = Core.fresh_id w.core in
    job.wire <- id;
    Hashtbl.replace w.by_wire id j;
    sim_step w
      (Core.Submit
         { id; request = line; job = parsed; key = Some (Printf.sprintf "key-%d" job.seed);
           now = w.now });
    if Random.State.float w.rng 1.0 < 0.03 then
      at w (w.now +. Random.State.float w.rng 0.01) (Client_cancel job.client)
  | Arrive { shard; conn; msg } ->
    if w.nodes.(shard).up && w.nodes.(shard).serving = conn then arrive w shard msg
  | Emit i -> if w.nodes.(i).up then emit_ready w i
  | Line { shard; conn; line } ->
    if w.conn.(shard) = conn then
      sim_step w
        (Core.Shard_line
           { sid = w.nodes.(shard).name; header = Reply.read line; line; now = w.now })
  | Lost { shard; conn } ->
    if w.conn.(shard) = conn then begin
      w.conn.(shard) <- -1;
      sim_step w (Core.Down { sid = w.nodes.(shard).name; now = w.now })
    end
  | Restart i -> w.nodes.(i).up <- true
  | Convict i ->
    let n = w.nodes.(i) in
    if w.conn.(i) >= 0 then begin
      (* the router closes the connection, so the shard drops the session *)
      if n.serving = w.conn.(i) then drop_session n;
      w.conn.(i) <- -1
    end;
    sim_step w (Core.Down { sid = n.name; now = w.now })
  | Client_cancel c -> sim_step w (Core.Cancel_client c)
  | Pacer ->
    sim_step w (Core.Tick w.now);
    at w (w.now +. sim_tick) Pacer

let sim_config p =
  { Core.placement =
      (match p mod 4 with 0 -> Core.Hash_only | 1 -> Core.Uniform | _ -> Core.Cache_aware);
    batch_max = [| 16; 4; 1 |].(p mod 3);
    steal_min = (if p mod 5 = 0 then 0 else 2);
    hedge_quantile = 0.5; hedge_floor = 0.02; stuck_after = 0.05;
    revive = p mod 3 <> 2;
    breaker = { Breaker.default with Breaker.failures = 2; cooldown = 0.2 } }

(* One plan: [sim_jobs] jobs in four waves, on 2 or 3 shards.  Returns
   the finished world, every invariant having held after every step. *)
let sim_run p =
  let rng = Random.State.make [| p |] in
  let shards = 2 + (p mod 2) in
  let names = List.init shards (Printf.sprintf "s%d") in
  let w =
    { plan_seed = p; rng;
      (* every fourth plan drops a third of its batches, so items are
         lost more than [max_resends] times *)
      faults =
        Fault.Plan.create
          { (chaos_config p) with Fault.Plan.net_drop = (if p mod 4 = 3 then 0.3 else 0.05) };
      core = Core.create ~registry:(Obs.Registry.create ()) (sim_config p) names;
      nodes =
        Array.of_list
          (List.mapi
             (fun i name ->
                { name; up = true; serving = i + 1; slots = Queue.create ();
                  free_at = [| 0.; 0. |]; cache = Hashtbl.create 16; link_in = 0.;
                  link_out = 0.; partition_until = 0. })
             names);
      conn = Array.init shards (fun i -> i + 1); next_conn = shards;
      now = 0.; events = Events.empty; seq = 0;
      jobs =
        Array.init sim_jobs (fun j ->
            { seed = (p + (j mod 12)) mod 64; client = 1000 + j;
              deadline = (if j mod 8 = 7 then 0.03 else 2.0); wire = 0 });
      by_wire = Hashtbl.create 64; answers = Hashtbl.create 64;
      outstanding = Array.make shards []; batches = Array.make shards 0;
      syncs = Hashtbl.create 16; trace = Buffer.create 4096 }
  in
  for j = 0 to sim_jobs - 1 do
    at w ((0.1 *. float_of_int (j / 16)) +. (0.0002 *. float_of_int (j mod 16))) (Submit_job j)
  done;
  if Random.State.float rng 1.0 < 0.3 then
    at w (Random.State.float rng 0.3) (Convict (Random.State.int rng shards));
  at w 0. Pacer;
  let rec run () =
    dispatch w;
    if Hashtbl.length w.answers < sim_jobs then
      match Events.min_binding_opt w.events with
      | None -> sim_fail w "no event left and jobs unanswered"
      | Some (((time, _) as k), ev) ->
        if time > 60. then sim_fail w "jobs still unanswered after 60 simulated seconds";
        w.events <- Events.remove k w.events;
        w.now <- time;
        handle w ev;
        run ()
  in
  run ();
  Array.iter
    (fun j ->
       let line = Hashtbl.find w.answers j.wire in
       let client_prefix = Printf.sprintf "{\"id\":%d," j.client in
       match (Reply.read line).status with
       | `Ok ->
         if line <> client_prefix ^ oracle_tail j.seed then
           sim_fail w (Printf.sprintf "job %d: ok reply differs from the oracle: %s" j.wire line)
       | `Shard_down | `Timeout | `Cancelled | `Overloaded ->
         if not (String.starts_with ~prefix:client_prefix line) then
           sim_fail w (Printf.sprintf "job %d: typed reply lacks the client id: %s" j.wire line)
       | _ -> sim_fail w (Printf.sprintf "job %d: untyped reply %s" j.wire line))
    w.jobs;
  w

let test_sim_battery () =
  ignore (Lazy.force oracle);
  let plans = 160 in
  let totals = Hashtbl.create 16 in
  let add (k, n) = Hashtbl.replace totals k (n + Option.value ~default:0 (Hashtbl.find_opt totals k)) in
  let t0 = Unix.gettimeofday () in
  for p = 0 to plans - 1 do
    let w = sim_run p in
    List.iter add (Core.placement_counts w.core);
    List.iter add (Core.resilience w.core)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let scenarios = plans * sim_jobs in
  Printf.printf "simulation: %d scenarios in %.2fs (%.0f per second)\n%!" scenarios dt
    (float_of_int scenarios /. dt);
  Alcotest.(check bool) (Printf.sprintf "%d scenarios (>= 10240)" scenarios) true
    (scenarios >= 10240);
  (* every policy the core owns was exercised somewhere in the battery *)
  List.iter
    (fun k ->
       let n = Option.value ~default:0 (Hashtbl.find_opt totals k) in
       Alcotest.(check bool) (Printf.sprintf "%s exercised (%d)" k n) true (n > 0))
    [ "cache"; "hash"; "uniform"; "failover"; "drain"; "steal"; "hedge"; "resend";
      "hedge_wins"; "deadline_expired"; "cancels"; "resends"; "revivals" ]

let test_sim_replays () =
  ignore (Lazy.force oracle);
  let trace p = Buffer.contents (sim_run p).trace in
  let a = trace 7 and b = trace 7 in
  Alcotest.(check bool) "the trace is not empty" true (String.length a > 1000);
  Alcotest.(check string) "a seed replays byte for byte" a b;
  Alcotest.(check bool) "another seed differs" false (String.equal a (trace 8))

(* ---- deadline propagation ---- *)

let test_deadline_immediate () =
  with_router ~n:1 @@ fun t ->
  let reply = Router.submit_line t (job_line ~deadline:0.000001 0) () in
  Alcotest.(check bool) "already-expired budget earns the typed timeout" true
    (contains reply "\"status\":\"timeout\"");
  (* the shard is untouched and still serves *)
  let ok = Router.submit_line t (job_line 1) () in
  Alcotest.(check string) "shard still healthy afterwards" (expect_seed 1)
    (normalise ok)

let test_deadline_expires_in_router () =
  (* a total one-way partition: every send toward the shard (jobs, sync
     pings, cancels) is swallowed, so only the router's pacer can answer
     — the deadline must fire there, with its distinguishing message *)
  let plan =
    Fault.Plan.create
      { Fault.Plan.default with Fault.Plan.partition = 1.0; partition_s = 2.0 }
  in
  with_router ~n:1 ~fault:plan @@ fun t ->
  let t0 = Unix.gettimeofday () in
  let reply = Router.submit_line t (job_line ~deadline:0.1 0) () in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "typed timeout from the router" true
    (contains reply "\"status\":\"timeout\""
     && contains reply "deadline exceeded in router");
  Alcotest.(check bool)
    (Printf.sprintf "answered near the deadline, not the partition (%.3fs)" dt)
    true (dt < 5.0);
  let stats = Router.stats_json t in
  Alcotest.(check bool) "deadline expiry counted" true
    (int_at [ "resilience"; "deadline_expired" ] stats >= 1)

(* ---- wire cancellation ---- *)

let test_wire_cancel () =
  (* a fault-plan delay holds every job in its worker for ~0.5s; the
     cancel is sent once the shard is running the job *)
  let slow =
    Fault.Plan.create
      { Fault.Plan.default with Fault.Plan.delay = 1.0; delay_s = 0.5 }
  in
  let shard, d, svc = in_process_shard ~fault:slow "s0" in
  let t = Router.create ~shards:[ shard ] () in
  Fun.protect ~finally:(fun () -> Router.shutdown t; Domain.join d) @@ fun () ->
  let join = Router.submit_line t (job_line ~id:77 0) in
  while (Server.Service.scheduler_stats svc).Server.Service_core.running = 0 do
    Domain.cpu_relax ()
  done;
  Router.cancel_client t 77;
  let reply = join () in
  Alcotest.(check bool) "typed cancelled reply in the job's own slot" true
    (contains reply "\"status\":\"cancelled\""
     && contains reply "cancelled by client");
  let stats = Router.stats_json t in
  Alcotest.(check bool) "cross-wire cancel forwarded" true
    (int_at [ "resilience"; "cancels" ] stats >= 1)

(* ---- hedged execution ---- *)

let test_hedging_under_slow_shards () =
  (* ~30% of dispatches stall 0.1s; with warm latency histograms the
     pacer hedges the stalled jobs onto the other shard and the fast
     copy wins.  All replies must still be oracle bytes. *)
  let plan =
    Fault.Plan.create
      { Fault.Plan.default with
        Fault.Plan.seed = 5; slow_shard = 0.3; slow_s = 0.1 }
  in
  with_router ~n:2 ~placement:Router.Uniform ~fault:plan ~hedge_quantile:0.5
    ~hedge_floor:0.02 @@ fun t ->
  (* warm: enough sequential jobs that both shards pass the 16-sample
     floor the hedge trigger requires *)
  for seed = 0 to 39 do
    check_reply ~what:"hedge warm" seed (Router.submit_line t (job_line seed) ())
  done;
  for seed = 40 to 55 do
    check_reply ~what:"hedge probe" seed (Router.submit_line t (job_line seed) ())
  done;
  let stats = Router.stats_json t in
  Alcotest.(check bool)
    (Printf.sprintf "hedges fired (%d)" (int_at [ "resilience"; "hedged" ] stats))
    true
    (int_at [ "resilience"; "hedged" ] stats >= 1)

(* ---- circuit breaker unit ---- *)

(* The breaker reads no clock, so these tests drive [~now] by hand. *)
let test_breaker_states () =
  let cfg =
    { Breaker.failures = 2; cooldown = 0.05; rtt_limit = 0.1; queue_limit = 3 }
  in
  let opened = ref 0 in
  let b = Breaker.create ~config:cfg ~on_open:(fun () -> incr opened) () in
  let state now = Breaker.state_name (Breaker.state b ~now) in
  Alcotest.(check bool) "closed admits" true (Breaker.allow b ~now:0.);
  Breaker.record_failure b ~now:0.;
  Alcotest.(check bool) "one failure stays closed" true (Breaker.allow b ~now:0.);
  Breaker.record_failure b ~now:0.;
  Alcotest.(check string) "opens at the failure threshold" "open" (state 0.);
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~now:0.);
  Alcotest.(check int) "transition counted" 1 (Breaker.opens b);
  Alcotest.(check int) "hook fired" 1 !opened;
  Alcotest.(check string) "still open just before the cooldown" "open"
    (state (Float.pred cfg.cooldown));
  (* the comparison is [>=]: exactly one cooldown after opening *)
  Alcotest.(check string) "half-open at exactly the cooldown" "half_open"
    (state cfg.cooldown);
  Alcotest.(check string) "cooldown elapses to half-open" "half_open" (state 0.06);
  Alcotest.(check bool) "half-open admits one trial" true (Breaker.allow b ~now:0.06);
  Alcotest.(check bool) "the trial slot is consumed" false (Breaker.allow b ~now:0.06);
  Breaker.record_success b;
  Alcotest.(check string) "trial success closes" "closed" (state 0.06);
  Alcotest.(check bool) "closed again admits" true (Breaker.allow b ~now:0.06);
  (* a failed trial re-arms the cooldown *)
  Breaker.record_failure b ~now:2.0;
  Breaker.record_failure b ~now:2.0;
  Alcotest.(check bool) "second trial admitted" true (Breaker.allow b ~now:2.06);
  Breaker.record_failure b ~now:2.06;
  Alcotest.(check bool) "failed trial refuses again" false (Breaker.allow b ~now:2.06);
  Alcotest.(check string) "re-armed open" "open" (state 2.1);
  Alcotest.(check string) "until a cooldown after the failed trial" "half_open"
    (state 2.12)

let test_breaker_rtt_and_queue () =
  let cfg =
    { Breaker.failures = 2; cooldown = 10.0; rtt_limit = 0.1; queue_limit = 3 }
  in
  let now = 0. in
  let state b = Breaker.state_name (Breaker.state b ~now) in
  let b = Breaker.create ~config:cfg () in
  Breaker.record_rtt b ~now 0.5;
  Breaker.record_rtt b ~now 0.5;
  Alcotest.(check string) "slow RTTs open the breaker" "open" (state b);
  let b2 = Breaker.create ~config:cfg () in
  Breaker.record_rtt b2 ~now 0.5;
  Breaker.record_rtt b2 ~now 0.01;
  Breaker.record_rtt b2 ~now 0.5;
  Alcotest.(check string) "a fast RTT resets the streak" "closed" (state b2);
  Breaker.note_queue_depth b2 9;
  Alcotest.(check bool) "deep queue refuses admission" false (Breaker.allow b2 ~now);
  Alcotest.(check string) "without changing state" "closed" (state b2);
  Breaker.note_queue_depth b2 1;
  Alcotest.(check bool) "drained queue admits again" true (Breaker.allow b2 ~now);
  Breaker.force_open b2 ~now;
  Alcotest.(check string) "force_open is the conviction path" "open" (state b2);
  Alcotest.(check bool) "and refuses" false (Breaker.allow b2 ~now)

(* ---- shard death mid-flight (qcheck) ---- *)

let prop_death_rerun_once =
  QCheck.Test.make ~count:12
    ~name:"jobs on a shard killed mid-flight re-run once, byte-identical"
    QCheck.(pair (0 -- 1000) (0 -- 10))
    (fun (_seed, k) ->
       with_router ~n:2 @@ fun t ->
       let joins =
         List.init 10 (fun seed -> (seed, Router.submit_line t (job_line seed)))
       in
       (* the shard dies once the first k replies have arrived *)
       List.iteri (fun i (_, join) -> if i < k then ignore (join ())) joins;
       Router.mark_down t "s0";
       (* exactly one reply per job (the join returns once), and every
          reply carries the oracle bytes: a job the dead shard already
          ran is not double-answered, a job it lost is re-run on the
          survivor *)
       List.for_all
         (fun (seed, join) ->
            let reply = join () in
            contains reply "\"status\":\"ok\""
            && String.equal (expect_seed seed) (normalise reply))
         joins)

(* ---- loadgen accounting for the new typed replies ---- *)

let test_loadgen_timeout_accounting () =
  let calls = Atomic.make 0 in
  let saw_deadline = Atomic.make false in
  let submit line () =
    if contains line "(deadline 2.5)" then Atomic.set saw_deadline true;
    match Atomic.fetch_and_add calls 1 mod 4 with
    | 0 -> "{\"status\":\"ok\",\"cached\":false,\"shard\":\"s0\"}"
    | 1 -> "{\"status\":\"timeout\",\"error\":\"deadline exceeded in router\"}"
    | 2 -> "{\"status\":\"cancelled\",\"shard\":\"s1\"}"
    | _ -> "{\"status\":\"overloaded\",\"shard\":\"s1\"}"
  in
  let cfg =
    { LG.default with
      LG.requests = 80; clients = 4; universe = 8; seed = 3;
      deadline = Some 2.5 }
  in
  let r = LG.run ~submit cfg in
  Atomic.set calls (Atomic.get calls);
  Alcotest.(check bool) "jobs carry the configured deadline" true
    (Atomic.get saw_deadline);
  Alcotest.(check int) "statuses partition the replies" 80
    (r.LG.ok + r.LG.overloaded + r.LG.shard_down + r.LG.timeouts + r.LG.cancelled
     + r.LG.failed);
  Alcotest.(check int) "timeouts tallied in their own bucket" 20 r.LG.timeouts;
  Alcotest.(check int) "cancellations tallied in their own bucket" 20
    r.LG.cancelled;
  Alcotest.(check int) "typed degradations are not failures" 0 r.LG.failed;
  let json = Server.Json.to_string (LG.report_json r) in
  Alcotest.(check bool) "report carries the new buckets" true
    (contains json "\"timeouts\":20" && contains json "\"cancelled\":20")

(* ---- socket shard crash-restart and revival ---- *)

let test_socket_revive_no_double_count () =
  let path = Filename.temp_file "resilience" ".sock" in
  Sys.remove path;
  (* a shard process: it binds the path (replacing a stale socket),
     signals that it listens, and serves sessions in turn until one
     sends (quit) *)
  let serve_at path =
    let svc = Server.Service.create ~shard_id:"b0" ~workers:2 ~queue_capacity:32 () in
    let m = Mutex.create () and bound = Condition.create () and listening = ref false in
    let d =
      Domain.spawn (fun () ->
          let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Server.Service.bind_socket_replacing sock path;
          Unix.listen sock 16;
          Mutex.lock m;
          listening := true;
          Condition.signal bound;
          Mutex.unlock m;
          let rec serve () =
            let fd, _ = Unix.accept sock in
            let quit =
              try
                Server.Service.serve_channels svc (Unix.in_channel_of_descr fd)
                  (Unix.out_channel_of_descr fd)
              with Sys_error _ -> false
            in
            (try Unix.close fd with Unix.Unix_error _ -> ());
            if not quit then serve ()
          in
          serve ();
          Unix.close sock;
          Unix.unlink path;
          Server.Service.shutdown svc)
    in
    Mutex.lock m;
    while not !listening do Condition.wait bound m done;
    Mutex.unlock m;
    Alcotest.(check bool) "server bound its socket" true (Sys.file_exists path);
    d
  in
  let quit_at path =
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | fd ->
      (try
         Unix.connect fd (Unix.ADDR_UNIX path);
         let oc = Unix.out_channel_of_descr fd in
         output_string oc "(quit)\n";
         flush oc;
         close_out oc
       with Unix.Unix_error _ | Sys_error _ ->
         (try Unix.close fd with Unix.Unix_error _ -> ()))
  in
  let d1 = serve_at path in
  let t = Router.create ~shards:[ ("b0", Router.Socket path) ] () in
  let d2 =
    Fun.protect
      ~finally:(fun () -> Router.shutdown t)
      (fun () ->
         let r1 = Router.submit_line t (job_line 1) () in
         Alcotest.(check string) "served before the crash" (expect_seed 1)
           (normalise r1);
         (* crash: the shard dies and its socket goes away *)
         Router.mark_down t "b0";
         quit_at path;
         Domain.join d1;
         let down = Router.submit_line t (job_line 2) () in
         Alcotest.(check bool) "down window answers typed shard_down" true
           (contains down "\"status\":\"shard_down\"");
         (* restart: a fresh process binds the same path (atomic replace
            of anything stale), and the router re-adopts it *)
         let d2 = serve_at path in
         Alcotest.(check bool) "revive re-adopts the returned shard" true
           (Router.revive t "b0");
         Alcotest.(check (list string)) "alive again" [ "b0" ]
           (Router.alive_ids t);
         let r2 = Router.submit_line t (job_line 3) () in
         Alcotest.(check string) "served after the restart" (expect_seed 3)
           (normalise r2);
         let stats = Router.stats_json t in
         Alcotest.(check int) "no double-count: the shard exists once" 1
           (int_at [ "shards_total" ] stats);
         Alcotest.(check int) "and is healthy once" 1
           (int_at [ "shards_healthy" ] stats);
         Alcotest.(check int) "each served job routed exactly once" 2
           (int_at [ "shards"; "b0"; "routed" ] stats);
         Alcotest.(check bool) "revival counted" true
           (int_at [ "resilience"; "revivals" ] stats >= 1);
         d2)
  in
  (* the shard serves sessions sequentially, so the quit can only be
     accepted once the router's own connection is gone — after shutdown *)
  quit_at path;
  Domain.join d2

let () =
  Alcotest.run "resilience"
    [ ("chaos",
       [ Alcotest.test_case "seeded battery vs fault-free oracle" `Slow
           test_chaos_battery ]);
      ("sim",
       [ Alcotest.test_case "router core under seeded faults, invariants per step" `Quick
           test_sim_battery;
         Alcotest.test_case "a seed replays byte-identical actions" `Quick
           test_sim_replays ]);
      ("deadline",
       [ Alcotest.test_case "expired budget answers immediately" `Quick
           test_deadline_immediate;
         Alcotest.test_case "router expiry under total partition" `Quick
           test_deadline_expires_in_router ]);
      ("cancel",
       [ Alcotest.test_case "wire cancel frees the slot" `Quick test_wire_cancel ]);
      ("hedging",
       [ Alcotest.test_case "slow dispatches get hedged" `Quick
           test_hedging_under_slow_shards ]);
      ("breaker",
       [ Alcotest.test_case "state machine" `Quick test_breaker_states;
         Alcotest.test_case "rtt and queue signals" `Quick
           test_breaker_rtt_and_queue ]);
      ("death",
       [ QCheck_alcotest.to_alcotest prop_death_rerun_once ]);
      ("loadgen",
       [ Alcotest.test_case "timeout and cancel buckets" `Quick
           test_loadgen_timeout_accounting ]);
      ("revive",
       [ Alcotest.test_case "socket crash-restart without double-count" `Quick
           test_socket_revive_no_double_count ]) ]
