type mode =
  | Closed
  | Open of float

type config = {
  requests : int;
  clients : int;
  universe : int;
  theta : float;
  seed : int;
  mode : mode;
  workload : string;
  size : int;
  deadline : float option;   (* per-job (deadline S) budget *)
}

let default =
  { requests = 512; clients = 4; universe = 64; theta = 0.99; seed = 1;
    mode = Closed; workload = "slang"; size = 256; deadline = None }

type report = {
  wall_seconds : float;
  issued : int;
  ok : int;
  cached : int;
  overloaded : int;
  shard_down : int;
  timeouts : int;     (* typed deadline replies: expected under chaos, not failures *)
  cancelled : int;
  failed : int;
  throughput : float;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  by_shard : (string * int) list;
}

(* ---- zipf ---- *)

(* Inverse-CDF sampling: P(rank i) proportional to 1/(i+1)^theta.  The CDF is
   precomputed once; each draw is one uniform float and a binary search. *)
let sampler ~theta ~n =
  if n < 1 then invalid_arg "Loadgen.sampler: n < 1";
  if theta < 0.0 then invalid_arg "Loadgen.sampler: negative theta";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Util.Rng.float rng *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* ---- per-client tallies, merged at the end ---- *)

type tally = {
  mutable t_issued : int;
  mutable t_ok : int;
  mutable t_cached : int;
  mutable t_overloaded : int;
  mutable t_shard_down : int;
  mutable t_timeout : int;
  mutable t_cancelled : int;
  mutable t_failed : int;
  mutable t_sum : float;
  shards : (string, int) Hashtbl.t;
}

let tally () =
  { t_issued = 0; t_ok = 0; t_cached = 0; t_overloaded = 0; t_shard_down = 0;
    t_timeout = 0; t_cancelled = 0; t_failed = 0; t_sum = 0.0;
    shards = Hashtbl.create 8 }

(* One walk of the reply's header gives its status, cache flag and
   shard. *)
let classify ty reply dt =
  ty.t_issued <- ty.t_issued + 1;
  ty.t_sum <- ty.t_sum +. dt;
  let h = Reply.read reply in
  (match h.status with
   | `Ok ->
     ty.t_ok <- ty.t_ok + 1;
     if h.cached then ty.t_cached <- ty.t_cached + 1
   | `Overloaded -> ty.t_overloaded <- ty.t_overloaded + 1
   | `Shard_down -> ty.t_shard_down <- ty.t_shard_down + 1
   | `Timeout -> ty.t_timeout <- ty.t_timeout + 1
   | `Cancelled -> ty.t_cancelled <- ty.t_cancelled + 1
   | `Error | `Shed | `Other | `Absent -> ty.t_failed <- ty.t_failed + 1);
  match Reply.shard h reply with
  | None -> ()
  | Some sid ->
    Hashtbl.replace ty.shards sid
      (1 + Option.value ~default:0 (Hashtbl.find_opt ty.shards sid))

(* ---- the harness ---- *)

let job_line cfg rank =
  let deadline =
    match cfg.deadline with
    | Some d -> Printf.sprintf " (deadline %g)" d
    | None -> ""
  in
  Printf.sprintf "(simulate (workload %s) (size %d) (seed %d)%s)"
    cfg.workload cfg.size rank deadline

let run ?after ~submit cfg =
  if cfg.requests < 1 then invalid_arg "Loadgen.run: requests < 1";
  if cfg.clients < 1 then invalid_arg "Loadgen.run: clients < 1";
  let hist =
    Obs.Metric.Histogram.create
      ~bounds:Obs.Metric.Histogram.fine_latency_bounds ()
  in
  let zipf = sampler ~theta:cfg.theta ~n:cfg.universe in
  let completions = Atomic.make 0 in
  let hook_done = Atomic.make false in
  let on_completion () =
    let n = Atomic.fetch_and_add completions 1 + 1 in
    match after with
    | Some (k, f) when n >= k ->
      if Atomic.compare_and_set hook_done false true then f ()
    | _ -> ()
  in
  (* closed loop: clients race on a shared budget; open loop: request i
     fires at t0 + i/rate, client (i mod clients) owns it *)
  let budget = Atomic.make cfg.requests in
  let t0 = Unix.gettimeofday () in
  let client idx =
    let rng = ref (Util.Rng.create ~seed:(cfg.seed * 7919 + idx)) in
    let ty = tally () in
    (match cfg.mode with
     | Closed ->
       let rec go () =
         if Atomic.fetch_and_add budget (-1) > 0 then begin
           let line = job_line cfg (zipf !rng) in
           let start = Unix.gettimeofday () in
           let reply = submit line () in
           let dt = Unix.gettimeofday () -. start in
           Obs.Metric.Histogram.record hist dt;
           classify ty reply dt;
           on_completion ();
           go ()
         end
       in
       go ()
     | Open rate ->
       if rate <= 0.0 then invalid_arg "Loadgen.run: open-loop rate <= 0";
       let i = ref idx in
       while !i < cfg.requests do
         let intended = t0 +. (float_of_int !i /. rate) in
         let now = Unix.gettimeofday () in
         if intended > now then Unix.sleepf (intended -. now);
         let line = job_line cfg (zipf !rng) in
         let reply = submit line () in
         (* latency from the intended arrival: waiting in our own queue
            counts against the server, not in its favour *)
         let dt = Unix.gettimeofday () -. intended in
         Obs.Metric.Histogram.record hist dt;
         classify ty reply dt;
         on_completion ();
         i := !i + cfg.clients
       done);
    ty
  in
  let tallies =
    if cfg.clients = 1 then [ client 0 ]
    else
      List.init cfg.clients (fun idx -> Domain.spawn (fun () -> client idx))
      |> List.map Domain.join
  in
  let wall = Unix.gettimeofday () -. t0 in
  let sum f = List.fold_left (fun a ty -> a + f ty) 0 tallies in
  let by_shard = Hashtbl.create 8 in
  List.iter
    (fun ty ->
       Hashtbl.iter
         (fun sid n ->
            Hashtbl.replace by_shard sid
              (n + Option.value ~default:0 (Hashtbl.find_opt by_shard sid)))
         ty.shards)
    tallies;
  let snap = Obs.Metric.Histogram.snapshot hist in
  let q p = Obs.Metric.Histogram.quantile snap p *. 1000.0 in
  let issued = sum (fun ty -> ty.t_issued) in
  { wall_seconds = wall;
    issued;
    ok = sum (fun ty -> ty.t_ok);
    cached = sum (fun ty -> ty.t_cached);
    overloaded = sum (fun ty -> ty.t_overloaded);
    shard_down = sum (fun ty -> ty.t_shard_down);
    timeouts = sum (fun ty -> ty.t_timeout);
    cancelled = sum (fun ty -> ty.t_cancelled);
    failed = sum (fun ty -> ty.t_failed);
    throughput = (if wall > 0.0 then float_of_int issued /. wall else 0.0);
    mean_ms =
      (if issued > 0 then
         List.fold_left (fun a ty -> a +. ty.t_sum) 0.0 tallies
         /. float_of_int issued *. 1000.0
       else 0.0);
    p50_ms = q 0.5;
    p99_ms = q 0.99;
    p999_ms = q 0.999;
    by_shard =
      Hashtbl.fold (fun sid n acc -> (sid, n) :: acc) by_shard []
      |> List.sort compare }

(* ---- rendering ---- *)

let report_text r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "requests   %d in %.2fs  (%.1f req/s)\n"
       r.issued r.wall_seconds r.throughput);
  Buffer.add_string b
    (Printf.sprintf
       "status     ok %d (cached %d)  overloaded %d  shard_down %d  timeout %d  \
        cancelled %d  failed %d\n"
       r.ok r.cached r.overloaded r.shard_down r.timeouts r.cancelled r.failed);
  Buffer.add_string b
    (Printf.sprintf "latency ms mean %.3f  p50 %.3f  p99 %.3f  p999 %.3f\n"
       r.mean_ms r.p50_ms r.p99_ms r.p999_ms);
  List.iter
    (fun (sid, n) ->
       Buffer.add_string b (Printf.sprintf "shard      %-12s %d replies\n" sid n))
    r.by_shard;
  Buffer.contents b

let report_json r =
  Server.Json.Obj
    [ ("status", Server.Json.Str "ok");
      ("wall_seconds", Server.Json.Float r.wall_seconds);
      ("issued", Server.Json.Int r.issued);
      ("ok", Server.Json.Int r.ok);
      ("cached", Server.Json.Int r.cached);
      ("overloaded", Server.Json.Int r.overloaded);
      ("shard_down", Server.Json.Int r.shard_down);
      ("timeouts", Server.Json.Int r.timeouts);
      ("cancelled", Server.Json.Int r.cancelled);
      ("failed", Server.Json.Int r.failed);
      ("throughput", Server.Json.Float r.throughput);
      ("latency_ms",
       Server.Json.Obj
         [ ("mean", Server.Json.Float r.mean_ms);
           ("p50", Server.Json.Float r.p50_ms);
           ("p99", Server.Json.Float r.p99_ms);
           ("p999", Server.Json.Float r.p999_ms) ]);
      ("by_shard",
       Server.Json.Obj
         (List.map (fun (sid, n) -> (sid, Server.Json.Int n)) r.by_shard)) ]
