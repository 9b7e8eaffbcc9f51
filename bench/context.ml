(* Shared, lazily computed inputs for the bench sections: workload traces
   are expensive to produce (an interpreted run each), so they are
   generated once per process via the registry's caches. *)

let workload name = Option.get (Workloads.Registry.find name)

let chapter3_suite () = Workloads.Registry.all

(* Chapter 5 uses the four larger traces (the thesis dropped PEARL). *)
let chapter5_suite () = Workloads.Registry.simulation_suite ()

let trace name = Workloads.Registry.trace (workload name)

(* The registry builds each workload's preprocessed form once. *)
let preprocessed = Workloads.Registry.preprocessed

let pre name = preprocessed (workload name)

let pct x = Printf.sprintf "%.2f" x
let pct1 x = Printf.sprintf "%.1f" x
let int_s = string_of_int

(* The shared job service: simulation sweeps and knee searches go through
   its scheduler (worker pool) and content-addressed result cache, so a
   second bench run over the same traces and configs is cache-warm.  The
   log store defaults to .smallsim-cache; point SMALLSIM_BENCH_CACHE
   elsewhere (or run with it unset in a scratch dir) to start cold. *)
let service =
  lazy
    (let store_dir =
       match Sys.getenv_opt "SMALLSIM_BENCH_CACHE" with
       | Some d -> d
       | None -> ".smallsim-cache"
     in
     let t =
       Server.Service.create ~store_dir
         ~workers:(Util.Parallel.default_domains ())
         ~queue_capacity:4096 ()
     in
     at_exit (fun () -> Server.Service.shutdown t);
     t)

let simulate_job config name =
  { Server.Job.source = Server.Job.Workload name;
    spec = Server.Job.Simulate config;
    timeout = None; priority = 0; deadline = None; wire_id = None }

(* Submit-all-then-await: the pool runs the batch concurrently while the
   results come back in request order.  A rejected or failed job falls
   back to running inline. *)
let through_service jobs fallback unpack =
  let joins =
    List.map (fun job -> (job, Server.Service.submit (Lazy.force service) job)) jobs
  in
  List.map
    (fun (job, submitted) ->
       match submitted with
       | Error (`Overloaded | `Shutdown) -> fallback job
       | Ok join ->
         (match (join ()).Server.Service.outcome with
          | Ok out ->
            (match unpack out with Some v -> v | None -> fallback job)
          | Error _ -> fallback job))
    joins

let sweep ?(config = Core.Simulator.default_config) sizes trace_name =
  let with_size size = { config with Core.Simulator.table_size = size } in
  List.combine sizes
    (through_service
       (List.map (fun size -> simulate_job (with_size size) trace_name) sizes)
       (fun job ->
          match job.Server.Job.spec with
          | Server.Job.Simulate cfg -> Core.Simulator.run cfg (pre trace_name)
          | _ -> assert false)
       (function Server.Exec.Simulate_out stats -> Some stats | _ -> None))

(* Knee (minimum overflow-free size) searches per (trace, seed), also
   cache-backed; [seed_knees] submits the whole seed batch at once. *)
let seed_knees ?(config = Core.Simulator.default_config) name seeds =
  let job seed =
    { Server.Job.source = Server.Job.Workload name;
      spec = Server.Job.Knee { config with Core.Simulator.seed };
      timeout = None; priority = 0; deadline = None; wire_id = None }
  in
  through_service
    (List.map job seeds)
    (fun job ->
       match job.Server.Job.spec with
       | Server.Job.Knee cfg -> fst (Core.Simulator.min_table_size cfg (Core.Simulator.pack (pre name)))
       | _ -> assert false)
    (function Server.Exec.Knee_out { size; _ } -> Some size | _ -> None)

(* Representative sizes bracketing each trace's knee (found once).  The
   per-process table sits in front of the service's result cache, which
   may now be probed from several domains at once. *)
let knee_cache : (string, int) Hashtbl.t = Hashtbl.create 8
let knee_lock = Mutex.create ()

let knee name =
  Mutex.lock knee_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock knee_lock) @@ fun () ->
  match Hashtbl.find_opt knee_cache name with
  | Some k -> k
  | None ->
    let k =
      match seed_knees name [ Core.Simulator.default_config.Core.Simulator.seed ] with
      | [ k ] -> k
      | _ -> assert false
    in
    Hashtbl.replace knee_cache name k;
    k
