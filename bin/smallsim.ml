(* smallsim — command-line front end to the SMALL reproduction.

   Subcommands:
     run       evaluate a mini-Lisp program (file or -e expression)
     compile   compile a program to the SMALL ISA and disassemble/execute
     trace     run a workload (or program) under tracing; save/summarise
     analyze   Chapter 3 analyses over a saved or built-in trace
     simulate  Chapter 5 SMALL simulation over a trace
     serve     run the simulation-job service (smalld)
     submit    send job requests to a running service
     route     front a sharded smalld cluster (consistent-hash router)
     loadgen   zipfian YCSB-style load harness against a cluster
     workloads list the built-in benchmark workloads *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- shared argument definitions ---- *)

let workload_names = List.map (fun w -> w.Workloads.Registry.name) Workloads.Registry.all

let workload_conv =
  Arg.conv
    ( (fun s ->
         match Workloads.Registry.find s with
         | Some w -> Ok w
         | None ->
           Error (`Msg (Printf.sprintf "unknown workload %s (have: %s)" s
                          (String.concat ", " workload_names)))),
      fun ppf w -> Format.pp_print_string ppf w.Workloads.Registry.name )

let trace_source =
  let doc = "Built-in workload to trace (" ^ String.concat "|" workload_names ^ ")." in
  Arg.(value & opt (some workload_conv) None & info [ "w"; "workload" ] ~doc)

let trace_file =
  let doc = "A previously saved trace file." in
  Arg.(value & opt (some file) None & info [ "t"; "trace" ] ~doc)

let job_source workload file =
  match workload, file with
  | Some w, _ -> Ok (Server.Job.Workload w.Workloads.Registry.name)
  | None, Some path -> Ok (Server.Job.Trace_file path)
  | None, None -> Error (`Msg "need --workload or --trace")

(* ---- run ---- *)

let run_cmd =
  let program =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file.")
  in
  let expr =
    Arg.(value & opt (some string) None
         & info [ "e" ] ~docv:"EXPR" ~doc:"Evaluate the given expression instead.")
  in
  let inputs =
    Arg.(value & opt (some file) None
         & info [ "input" ] ~doc:"File of datums served to (read).")
  in
  let strategy =
    Arg.(value & opt (enum [ ("deep", Lisp.Env.Deep); ("shallow", Lisp.Env.Shallow);
                             ("value-cache", Lisp.Env.Value_cache) ])
           Lisp.Env.Deep
         & info [ "binding" ] ~doc:"Environment strategy: deep|shallow|value-cache.")
  in
  let action file expr inputs strategy =
    match file, expr with
    | None, None -> Error (`Msg "need a program file or -e EXPR")
    | _ ->
      let source = match expr with Some e -> e | None -> read_file (Option.get file) in
      let interp = Lisp.Interp.create ~strategy () in
      Lisp.Prelude.load interp;
      (match inputs with
       | Some path -> Lisp.Interp.provide_input interp (Sexp.parse_many (read_file path))
       | None -> ());
      (try
         let v = Lisp.Interp.run_program interp source in
         List.iter (fun d -> print_endline (Sexp.to_string d)) (Lisp.Interp.output interp);
         Printf.printf "=> %s\n" (Lisp.Value.to_string v);
         Ok ()
       with
       | Lisp.Interp.Error msg -> Error (`Msg ("lisp error: " ^ msg))
       | Sexp.Reader.Parse_error msg -> Error (`Msg ("parse error: " ^ msg)))
  in
  let term = Term.(term_result (const action $ program $ expr $ inputs $ strategy)) in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate a mini-Lisp program") term

(* ---- compile ---- *)

let compile_cmd =
  let program =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file.")
  in
  let expr =
    Arg.(value & opt (some string) None & info [ "e" ] ~docv:"EXPR" ~doc:"Inline program.")
  in
  let execute =
    Arg.(value & flag & info [ "x"; "execute" ] ~doc:"Run the compiled program too.")
  in
  let inputs =
    Arg.(value & opt (some file) None & info [ "input" ] ~doc:"Datums for RDLIST.")
  in
  let action file expr execute inputs =
    match file, expr with
    | None, None -> Error (`Msg "need a program file or -e EXPR")
    | _ ->
      let source = match expr with Some e -> e | None -> read_file (Option.get file) in
      (try
         let prog = Machine.Compile.parse_and_compile source in
         List.iter
           (fun (name, fn) ->
              Printf.printf "%s:\n%s\n" name (Machine.Isa.disassemble fn.Machine.Isa.code))
           prog.Machine.Isa.fns;
         Printf.printf "main:\n%s" (Machine.Isa.disassemble prog.Machine.Isa.main);
         if execute then begin
           let input =
             match inputs with
             | Some path -> Sexp.parse_many (read_file path)
             | None -> []
           in
           let em = Machine.Emulator.create ~input prog in
           (match Machine.Emulator.run em with
            | Some v ->
              Printf.printf "\n=> %s (%d instructions)\n"
                (Sexp.to_string (Machine.Emulator.datum_of em v))
                (Machine.Emulator.instructions em)
            | None -> print_endline "\n=> (no value)");
           let c = Machine.Emulator.lpt_counters em in
           Printf.printf "LP: %d gets, %d refops, %d hits, %d misses\n" c.Core.Lpt.gets
             c.Core.Lpt.refops c.Core.Lpt.hits c.Core.Lpt.misses
         end;
         Ok ()
       with
       | Machine.Compile.Error msg -> Error (`Msg ("compile error: " ^ msg))
       | Machine.Emulator.Runtime_error msg -> Error (`Msg ("runtime error: " ^ msg))
       | Sexp.Reader.Parse_error msg -> Error (`Msg ("parse error: " ^ msg)))
  in
  let term = Term.(term_result (const action $ program $ expr $ execute $ inputs)) in
  Cmd.v (Cmd.info "compile" ~doc:"Compile to the SMALL instruction set") term

(* ---- trace ---- *)

let trace_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Save the trace to this file.")
  in
  let binary =
    Arg.(value & flag
         & info [ "binary" ] ~doc:"Save in the compact binary format (see Trace.Binary).")
  in
  let show_stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Also report unique list objects and the trace digest.")
  in
  let print_mix mix =
    List.iter
      (fun p ->
         Printf.printf "  %-7s %6.2f%%\n" (Trace.Event.prim_name p)
           (Analysis.Prim_mix.pct mix p))
      Trace.Event.all_prims
  in
  let save_to capture out binary =
    match out with
    | Some path ->
      let format = if binary then Trace.Io.Binary else Trace.Io.Sexp_lines in
      Trace.Io.save ~format path capture;
      Printf.printf "saved to %s%s\n" path (if binary then " (binary)" else "")
    | None -> ()
  in
  (* Every summary reads the flat form: the event count, statistics and
     mix off its codes, and with [--stats] its unique lists and
     [digest], the server's cache key.  A binary file also reports its
     framing ([framing]).  No event is materialised unless [-o] asks
     for a re-encode ([capture]). *)
  let summarise ?framing ~digest ~capture (pre : Trace.Preprocess.t) out binary
      show_stats =
    let st = pre.stats in
    Printf.printf "events: %d (%d primitives, %d function calls, max depth %d)\n"
      (Array.length pre.codes) st.primitives st.functions st.max_depth;
    Option.iter
      (fun (hs : Trace.Binary.header_stats) ->
         Printf.printf "binary: %d chunks, %d bytes (%d payload)\n" hs.h_chunks hs.h_bytes
           hs.h_payload_bytes)
      framing;
    print_mix (Analysis.Prim_mix.analyze pre);
    if show_stats then begin
      Printf.printf "unique list objects: %d\n" pre.distinct_lists;
      Printf.printf "digest: %s\n" (digest ())
    end;
    if out <> None then save_to (capture ()) out binary
  in
  let action workload file out binary show_stats =
    match workload, file with
    | None, None -> Error (`Msg "need --workload or --trace")
    | Some w, _ ->
      summarise
        ~digest:(fun () -> Workloads.Registry.digest w)
        ~capture:(fun () -> Workloads.Registry.trace w)
        (Workloads.Registry.preprocessed w) out binary show_stats;
      Ok ()
    | None, Some path ->
      Trace.Io.with_path path (fun _ -> function
        | Trace.Io.Sexp_capture capture ->
          summarise ~digest:(fun () -> Trace.Binary.digest capture)
            ~capture:(fun () -> capture) (Trace.Preprocess.run capture) out binary
            show_stats
        | Trace.Io.Binary_source src ->
          summarise ~framing:(Trace.Binary.header_stats src)
            ~digest:(fun () -> Digest.to_hex (Digest.file path))
            ~capture:(fun () -> Trace.Binary.capture_of_source src)
            (Trace.Preprocess.run_source src) out binary show_stats);
      Ok ()
  in
  let term =
    Term.(term_result
            (const action $ trace_source $ trace_file $ out $ binary $ show_stats))
  in
  Cmd.v (Cmd.info "trace" ~doc:"Capture or summarise a list-primitive trace") term

(* ---- analyze ---- *)

let analyze_cmd =
  let separation =
    Arg.(value & opt float 0.10
         & info [ "separation" ] ~doc:"List-set separation constraint (fraction).")
  in
  let action workload file separation =
    match job_source workload file with
    | Error _ as e -> e
    | Ok source ->
      let pre = Server.Exec.preprocessed_of_source source in
      let np = Analysis.Np_stats.analyze pre in
      Printf.printf "lists: %d distinct; mean n = %.2f, mean p = %.2f\n"
        pre.Trace.Preprocess.distinct_lists (Analysis.Np_stats.mean_n np)
        (Analysis.Np_stats.mean_p np);
      let sets = Analysis.List_sets.partition ~separation pre in
      Printf.printf "list sets (%.0f%% separation): %d over %d references\n"
        (100. *. separation)
        (List.length sets.Analysis.List_sets.sets)
        sets.Analysis.List_sets.stream_length;
      List.iter
        (fun frac ->
           Printf.printf "  largest %d sets cover %.0f%% of references\n"
             (Analysis.List_sets.sets_for_coverage sets frac) (100. *. frac))
        [ 0.5; 0.8; 0.95 ];
      let stream = Analysis.List_sets.set_id_stream ~separation pre in
      let lru = Analysis.Lru_stack.analyze stream in
      List.iter
        (fun k ->
           Printf.printf "LRU stack depth %2d captures %.1f%% of set accesses\n" k
             (100. *. Analysis.Lru_stack.hit_fraction lru k))
        [ 1; 2; 4; 8 ];
      let ch = Analysis.Chaining.analyze pre in
      Printf.printf "chaining: car %.1f%%, cdr %.1f%%\n" (Analysis.Chaining.car_pct ch)
        (Analysis.Chaining.cdr_pct ch);
      Ok ()
  in
  let term =
    Term.(term_result (const action $ trace_source $ trace_file $ separation))
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Chapter 3 locality analyses over a trace") term

(* ---- simulate ---- *)

let simulate_cmd =
  let size =
    Arg.(value & opt int 2048 & info [ "size" ] ~doc:"LPT size in entries.")
  in
  let policy =
    Arg.(value & opt (enum [ ("one", Core.Lpt.Compress_one); ("all", Core.Lpt.Compress_all) ])
           Core.Lpt.Compress_one
         & info [ "policy" ] ~doc:"Pseudo-overflow compression policy: one|all.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let cache_lines =
    Arg.(value & opt (some int) None
         & info [ "cache" ] ~doc:"Also run an LRU cache with this many lines.")
  in
  let line_size =
    Arg.(value & opt int 1 & info [ "line" ] ~doc:"Cache line size in cells.")
  in
  let split = Arg.(value & flag & info [ "split-counts" ] ~doc:"EP-side stack counts.") in
  let find_knee =
    Arg.(value & flag & info [ "knee" ] ~doc:"Search for the minimum overflow-free size.")
  in
  let with_metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Collect run metrics and print the Prometheus exposition afterwards.")
  in
  let action workload file size policy seed cache_lines line_size split find_knee
      with_metrics =
    match job_source workload file with
    | Error _ as e -> e
    | Ok source ->
      (* the job service's path: a binary trace file is scanned straight
         off its source *)
      let packed = Core.Simulator.pack (Server.Exec.preprocessed_of_source source) in
      let config =
        { Core.Simulator.default_config with
          table_size = size; policy; seed; split_counts = split;
          cache =
            Option.map
              (fun lines -> { Core.Simulator.cache_lines = lines; cache_line_size = line_size })
              cache_lines }
      in
      let metrics = if with_metrics then Some (Obs.Registry.create ()) else None in
      if find_knee then begin
        let k, stats = Core.Simulator.min_table_size ?metrics config packed in
        Printf.printf "knee: %d entries (peak usage %d, no overflow)\n" k
          stats.Core.Simulator.peak_lpt
      end
      else begin
        let s = Core.Simulator.run_packed ?metrics config packed in
        Printf.printf "events %d; peak LPT %d, average %.1f\n" s.Core.Simulator.events
          s.Core.Simulator.peak_lpt s.Core.Simulator.avg_lpt;
        Printf.printf "LPT: %d hits, %d misses (hit rate %.2f%%)\n"
          s.Core.Simulator.lpt.Core.Lpt.hits s.Core.Simulator.lpt.Core.Lpt.misses
          (100. *. Core.Simulator.lpt_hit_rate s);
        Printf.printf "refcount ops %d (EP-side %d); gets %d; frees %d\n"
          s.Core.Simulator.lpt.Core.Lpt.refops s.Core.Simulator.lpt.Core.Lpt.ep_refops
          s.Core.Simulator.lpt.Core.Lpt.gets s.Core.Simulator.lpt.Core.Lpt.frees;
        Printf.printf "overflows: %d pseudo (%d compressions), overflow-mode events %d\n"
          s.Core.Simulator.lpt.Core.Lpt.pseudo_overflows
          s.Core.Simulator.lpt.Core.Lpt.compressions s.Core.Simulator.overflow_events;
        (match config.cache with
         | Some _ ->
           Printf.printf "cache: %d hits, %d misses (hit rate %.2f%%)\n"
             s.Core.Simulator.cache_hits s.Core.Simulator.cache_misses
             (100. *. Core.Simulator.cache_hit_rate s)
         | None -> ())
      end;
      (match metrics with
       | Some reg -> print_newline (); print_string (Obs.Expo.of_registry reg)
       | None -> ());
      Ok ()
  in
  let term =
    Term.(term_result
            (const action $ trace_source $ trace_file $ size $ policy $ seed
             $ cache_lines $ line_size $ split $ find_knee $ with_metrics))
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Trace-driven SMALL simulation (Chapter 5)") term

(* ---- serve / submit ---- *)

let socket_arg =
  let doc = "Unix domain socket path for the job service." in
  Arg.(value & opt string "smalld.sock" & info [ "socket" ] ~doc)

let load_fault_plan = function
  | None -> Ok None
  | Some path ->
    (match Fault.Plan.load path with
     | Ok plan -> Ok (Some plan)
     | Error msg -> Error (`Msg ("bad fault plan: " ^ msg)))

let serve_cmd =
  let workers =
    Arg.(value & opt int (max 1 (Domain.recommended_domain_count () - 1))
         & info [ "workers" ] ~doc:"Worker domains in the pool.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~doc:"Queue capacity; further submissions are rejected.")
  in
  let store_dir =
    Arg.(value & opt (some string) None
         & info [ "store-dir" ]
             ~doc:"Persist the result cache here in the crash-consistent \
                   log-structured store (group-committed segment log with recovery \
                   replay and compaction); omit for memory-only.")
  in
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ] ~doc:"Serve one session on stdin/stdout instead of a socket.")
  in
  let metrics_file =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write the Prometheus exposition here after every handled request \
                   (atomically, so a scraper can read it at any time).")
  in
  let fault_plan =
    Arg.(value & opt (some string) None
         & info [ "fault-plan" ] ~docv:"FILE"
             ~doc:"Inject faults on the seeded schedule in this plan file \
                   (see Fault.Plan; for robustness testing).")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~doc:"Re-run a failed job up to this many times.")
  in
  let shard_id =
    Arg.(value & opt (some string) None
         & info [ "shard-id" ] ~docv:"ID"
             ~doc:"Name this service as a cluster shard: every reply line then \
                   carries a shard field (used by `smallsim route`).")
  in
  let action socket workers queue store_dir stdio metrics_file fault_plan retries
      shard_id =
    if workers < 1 then Error (`Msg "--workers must be at least 1")
    else if queue < 1 then Error (`Msg "--queue must be at least 1")
    else if retries < 0 then Error (`Msg "--retries must be non-negative")
    else begin
      match load_fault_plan fault_plan with
      | Error _ as e -> e
      | Ok fault ->
        let t =
          Server.Service.create ?metrics_file ?fault ?shard_id ~retries ?store_dir
            ~workers ~queue_capacity:queue ()
        in
        Fun.protect
          ~finally:(fun () -> Server.Service.shutdown t)
          (fun () ->
             if stdio then ignore (Server.Service.serve_channels t stdin stdout)
             else begin
               Printf.eprintf "smalld: %d workers, queue %d, listening on %s\n%!"
                 workers queue socket;
               Server.Service.serve_socket t ~path:socket
             end);
        Ok ()
    end
  in
  let term =
    Term.(term_result
            (const action $ socket_arg $ workers $ queue $ store_dir $ stdio
             $ metrics_file $ fault_plan $ retries $ shard_id))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the simulation-job service (newline-delimited requests, JSON results)")
    term

let submit_cmd =
  let request =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"REQUEST"
             ~doc:"A job s-expression, e.g. (simulate (workload slang) (size 512)). \
                   Omitted: requests are read from stdin, one per line.")
  in
  let connect_retries =
    Arg.(value & opt int 5
         & info [ "connect-retries" ] ~docv:"N"
             ~doc:"Retry a refused connection up to $(docv) times with \
                   decorrelated-jitter backoff (50ms base, 1s cap) — covers the \
                   window where the server is still binding its socket, without \
                   letting many clients retry in lockstep.  0 fails fast.")
  in
  (* A server that is starting up (socket file not yet bound, or bound
     but not yet listening) answers ENOENT/ECONNREFUSED; those — and only
     those — are worth retrying.  EACCES, a directory, etc. are not.

     Backoff is decorrelated jitter: sleep the current delay, then draw
     the next uniformly from [base, 3*delay] (capped).  A herd of
     clients started together — exactly the crash-restart case — spreads
     out instead of hammering the socket on synchronized beats. *)
  let connect_base = 0.05 in
  let rec connect_backoff rng socket retries delay =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match e with
       | Unix.ENOENT | Unix.ECONNREFUSED when retries > 0 ->
         Unix.sleepf delay;
         let span = Float.max 0.0 ((delay *. 3.0) -. connect_base) in
         let next =
           Float.min 1.0 (connect_base +. (Util.Rng.float rng *. span))
         in
         connect_backoff rng socket (retries - 1) next
       | _ ->
         Error
           (`Msg
              (Printf.sprintf "cannot connect to %s: %s (is `smallsim serve` running?)"
                 socket (Unix.error_message e))))
  in
  let action socket connect_retries request =
    if connect_retries < 0 then Error (`Msg "--connect-retries must be non-negative")
    else
    let requests =
      match request with
      | Some r -> [ r ]
      | None ->
        let rec loop acc =
          match input_line stdin with
          | l -> loop (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        loop []
    in
    let rng = Util.Rng.create ~seed:(Unix.getpid ()) in
    match connect_backoff rng socket connect_retries connect_base with
    | Error _ as e -> e
    | Ok fd ->
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      List.iter (fun l -> output_string oc l; output_char oc '\n') requests;
      flush oc;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (try
         while true do
           print_endline (input_line ic)
         done
       with End_of_file -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Ok ()
  in
  let term = Term.(term_result (const action $ socket_arg $ connect_retries $ request)) in
  Cmd.v (Cmd.info "submit" ~doc:"Send job requests to a running service") term

(* ---- route / loadgen ---- *)

let placement_arg =
  Arg.(value
       & opt (enum [ ("cache", Cluster.Router.Cache_aware);
                     ("hash", Cluster.Router.Hash_only);
                     ("uniform", Cluster.Router.Uniform) ])
           Cluster.Router.Cache_aware
       & info [ "placement" ]
           ~doc:"Job placement: $(b,cache) (shard owning the cached result, ring \
                 fallback), $(b,hash) (ring only), or $(b,uniform) (round-robin \
                 baseline).")

let shards_arg =
  Arg.(value & opt int 2
       & info [ "shards" ] ~docv:"N" ~doc:"Backend shards to spawn.")

let shard_workers_arg =
  Arg.(value & opt int 2
       & info [ "shard-workers" ] ~doc:"Worker domains per spawned shard.")

let shard_queue_arg =
  Arg.(value & opt int 64
       & info [ "shard-queue" ] ~doc:"Queue capacity per spawned shard.")

let batch_max_arg =
  Arg.(value & opt int 16
       & info [ "batch-max" ] ~doc:"Micro-batch bound per shard round trip.")

let steal_min_arg =
  Arg.(value & opt int 2
       & info [ "steal-min" ]
           ~doc:"Queue length at which an idle shard steals work; 0 disables.")

let vnodes_arg =
  Arg.(value & opt int 64
       & info [ "vnodes" ] ~doc:"Virtual nodes per shard on the hash ring.")

let health_interval_arg =
  Arg.(value & opt float 0.25
       & info [ "health-interval" ] ~doc:"Seconds between shard health checks.")

let down_after_arg =
  Arg.(value & opt float 2.0
       & info [ "down-after" ]
           ~doc:"Declare an idle shard dead after a ping goes unanswered this long.")

(* The router's resilience knobs, shared by route and loadgen.  Collected
   into one record so both actions take a single validated argument. *)
type resilience = {
  r_fault : Fault.Plan.t option;
  r_hedge_quantile : float;
  r_hedge_floor : float;
  r_breaker : Cluster.Breaker.config;
  r_stuck_after : float;
  r_revive : bool;
  r_metrics_file : string option;
}

let resilience_term =
  let fault_plan =
    Arg.(value & opt (some string) None
         & info [ "fault-plan" ] ~docv:"FILE"
             ~doc:"Inject seeded network/process chaos on the shard wires from \
                   this plan file: sites $(b,net.<sid>) draw delay, drop, dup, \
                   reorder and one-way partitions; $(b,proc.<sid>) draws \
                   slow-shard stalls and crash-restarts (see Fault.Plan).")
  in
  let hedge_quantile =
    Arg.(value & opt float 0.0
         & info [ "hedge-quantile" ] ~docv:"Q"
             ~doc:"Hedge an in-flight job once it outlives twice this per-shard \
                   latency quantile (e.g. 0.95): re-issue it to the next ring \
                   owner, first answer wins, the loser is cancelled.  0 disables.")
  in
  let hedge_floor =
    Arg.(value & opt float 0.01
         & info [ "hedge-floor" ] ~docv:"S"
             ~doc:"Never hedge a job that has been in flight for less than this \
                   many seconds.")
  in
  let breaker_failures =
    Arg.(value & opt int 4
         & info [ "breaker-failures" ] ~docv:"N"
             ~doc:"Consecutive failures that trip a shard's circuit breaker open.")
  in
  let breaker_cooldown =
    Arg.(value & opt float 1.0
         & info [ "breaker-cooldown" ] ~docv:"S"
             ~doc:"Seconds an open breaker waits before admitting one half-open \
                   trial request.")
  in
  let breaker_rtt =
    Arg.(value & opt (some float) None
         & info [ "breaker-rtt-limit" ] ~docv:"S"
             ~doc:"Count a shard reply or probe slower than this as a breaker \
                   failure (default: no limit).")
  in
  let breaker_queue =
    Arg.(value & opt int 0
         & info [ "breaker-queue-limit" ] ~docv:"N"
             ~doc:"Open a shard's breaker while its queue is deeper than this; \
                   0 disables.")
  in
  let stuck_after =
    Arg.(value & opt float 1.0
         & info [ "stuck-after" ] ~docv:"S"
             ~doc:"Sync-ping a silent shard after this many seconds in flight to \
                   detect dropped requests and re-send them.")
  in
  let revive =
    Arg.(value & flag
         & info [ "revive" ]
             ~doc:"Re-adopt crash-restarted shards: respawn dead spawned \
                   children and re-connect returning socket backends instead of \
                   leaving them down.")
  in
  let metrics_file =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write the router's Prometheus exposition here (atomic \
                   rename), twice a second and at shutdown.")
  in
  let combine fault_plan hq hf bf bc brtt bq sa revive metrics_file =
    if hq < 0.0 || hq >= 1.0 then Error (`Msg "--hedge-quantile must be in [0,1)")
    else if hf < 0.0 then Error (`Msg "--hedge-floor must be non-negative")
    else if bf < 1 then Error (`Msg "--breaker-failures must be at least 1")
    else if bc <= 0.0 then Error (`Msg "--breaker-cooldown must be positive")
    else if (match brtt with Some r -> r <= 0.0 | None -> false) then
      Error (`Msg "--breaker-rtt-limit must be positive")
    else if bq < 0 then Error (`Msg "--breaker-queue-limit must be non-negative")
    else if sa <= 0.0 then Error (`Msg "--stuck-after must be positive")
    else
      match load_fault_plan fault_plan with
      | Error _ as e -> e
      | Ok fault ->
        Ok { r_fault = fault; r_hedge_quantile = hq; r_hedge_floor = hf;
             r_breaker =
               { Cluster.Breaker.failures = bf; cooldown = bc;
                 rtt_limit = Option.value ~default:infinity brtt;
                 queue_limit = bq };
             r_stuck_after = sa; r_revive = revive; r_metrics_file = metrics_file }
  in
  Term.(const combine $ fault_plan $ hedge_quantile $ hedge_floor
        $ breaker_failures $ breaker_cooldown $ breaker_rtt $ breaker_queue
        $ stuck_after $ revive $ metrics_file)

let make_router ~res ?(vnodes = 64) ~batch_max ~steal_min ~placement ~shards () =
  Cluster.Router.create ~vnodes ~batch_max ~steal_min ~placement
    ?fault:res.r_fault ~hedge_quantile:res.r_hedge_quantile
    ~hedge_floor:res.r_hedge_floor ~breaker:res.r_breaker
    ~stuck_after:res.r_stuck_after ~revive:res.r_revive
    ?metrics_file:res.r_metrics_file ~shards ()

(* Spawned shards are children of this very binary serving the wire
   protocol on stdio — no sockets to coordinate, and a SIGKILLed child
   is indistinguishable from a crashed remote shard. *)
let spawned_shards ~shards ~workers ~queue ~store_dir =
  List.init shards (fun i ->
      let sid = Printf.sprintf "s%d" i in
      let argv =
        [ Sys.executable_name; "serve"; "--stdio"; "--shard-id"; sid;
          "--workers"; string_of_int workers; "--queue"; string_of_int queue ]
        @ (match store_dir with
           | Some dir -> [ "--store-dir"; Filename.concat dir sid ]
           | None -> [])
      in
      (sid, Cluster.Router.Spawn (Array.of_list argv)))

let route_cmd =
  let socket =
    Arg.(value & opt string "smallroute.sock"
         & info [ "socket" ] ~doc:"Unix domain socket the router listens on.")
  in
  let backends =
    Arg.(value & opt_all string []
         & info [ "backend" ] ~docv:"SOCKET"
             ~doc:"Route to an already-running smalld at this socket instead of \
                   spawning shards (repeatable; shard ids are b0, b1, ...).")
  in
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ] ~doc:"Serve one routing session on stdin/stdout.")
  in
  let store_dir =
    Arg.(value & opt (some string) None
         & info [ "store-dir" ]
             ~doc:"Per-shard log-structured store root for spawned shards (shard \
                   id is appended); omit for memory-only shards.")
  in
  let action socket backends stdio shards workers queue store_dir
      placement vnodes batch_max steal_min health_interval down_after res =
    if shards < 1 then Error (`Msg "--shards must be at least 1")
    else if workers < 1 then Error (`Msg "--shard-workers must be at least 1")
    else if queue < 1 then Error (`Msg "--shard-queue must be at least 1")
    else if batch_max < 1 then Error (`Msg "--batch-max must be at least 1")
    else if steal_min < 0 then Error (`Msg "--steal-min must be non-negative")
    else if health_interval <= 0.0 then
      Error (`Msg "--health-interval must be positive")
    else if down_after <= 0.0 then Error (`Msg "--down-after must be positive")
    else begin
      match res with
      | Error _ as e -> e
      | Ok res ->
      let shard_list =
        match backends with
        | [] -> spawned_shards ~shards ~workers ~queue ~store_dir
        | paths ->
          List.mapi
            (fun i p -> (Printf.sprintf "b%d" i, Cluster.Router.Socket p))
            paths
      in
      let router =
        make_router ~res ~vnodes ~batch_max ~steal_min ~placement
          ~shards:shard_list ()
      in
      let health =
        Cluster.Health.start ~interval:health_interval ~down_after router
      in
      Fun.protect
        ~finally:(fun () ->
            Cluster.Health.stop health;
            Cluster.Router.shutdown router)
        (fun () ->
           if stdio then ignore (Cluster.Router.serve_channels router stdin stdout)
           else begin
             Printf.eprintf "smallroute: %d shards (%s), listening on %s\n%!"
               (List.length shard_list)
               (String.concat ", " (Cluster.Router.shard_ids router))
               socket;
             Cluster.Router.serve_socket router ~path:socket
           end);
      Ok ()
    end
  in
  let term =
    Term.(term_result
            (const action $ socket $ backends $ stdio $ shards_arg
             $ shard_workers_arg $ shard_queue_arg $ store_dir
             $ placement_arg
             $ vnodes_arg $ batch_max_arg $ steal_min_arg $ health_interval_arg
             $ down_after_arg $ resilience_term))
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Front a sharded smalld cluster: consistent-hash, cache-aware routing \
             with health-checked failover and work stealing")
    term

let loadgen_cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Drive an already-running server (smalld or router) at this \
                   socket instead of spawning a cluster.")
  in
  let requests =
    Arg.(value & opt int 512 & info [ "requests" ] ~doc:"Total requests to issue.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Concurrent client domains.")
  in
  let universe =
    Arg.(value & opt int 64
         & info [ "universe" ] ~doc:"Distinct job configurations to draw from.")
  in
  let theta =
    Arg.(value & opt float 0.99
         & info [ "theta" ] ~doc:"Zipfian skew (0 = uniform popularity).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let open_rate =
    Arg.(value & opt (some float) None
         & info [ "open" ] ~docv:"RATE"
             ~doc:"Open-loop mode at this aggregate req/s (latency measured from \
                   intended arrival); default is closed-loop.")
  in
  let workload =
    Arg.(value & opt string "slang"
         & info [ "workload" ] ~doc:"Built-in workload the jobs simulate.")
  in
  let size =
    Arg.(value & opt int 256 & info [ "size" ] ~doc:"Simulated LPT size knob.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let kill_after =
    Arg.(value & opt (some int) None
         & info [ "kill-after" ] ~docv:"K"
             ~doc:"Fault drill: SIGKILL one spawned shard after the K-th reply; \
                   the run must complete degraded on the survivors.")
  in
  let kill_shard =
    Arg.(value & opt (some string) None
         & info [ "kill-shard" ] ~docv:"ID"
             ~doc:"Which shard --kill-after kills (default: the last one).")
  in
  let store_dir =
    Arg.(value & opt (some string) None
         & info [ "store-dir" ]
             ~doc:"Per-shard log-structured store root for spawned shards (shard \
                   id is appended) — results survive a crash-restart, so a \
                   revived shard re-serves them cached.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Attach a (deadline $(docv)) budget to every job; the budget \
                   propagates across hops and an overrun earns the typed \
                   timeout reply (tallied separately from failures).")
  in
  let action socket shards workers queue placement batch_max steal_min requests
      clients universe theta seed open_rate workload size json kill_after
      kill_shard store_dir deadline health_interval down_after res =
    if requests < 1 then Error (`Msg "--requests must be at least 1")
    else if clients < 1 then Error (`Msg "--clients must be at least 1")
    else if universe < 1 then Error (`Msg "--universe must be at least 1")
    else if theta < 0.0 then Error (`Msg "--theta must be non-negative")
    else if (match deadline with Some d -> d <= 0.0 | None -> false) then
      Error (`Msg "--deadline must be positive")
    else if health_interval <= 0.0 then
      Error (`Msg "--health-interval must be positive")
    else if down_after <= 0.0 then Error (`Msg "--down-after must be positive")
    else if not (List.mem workload workload_names) then
      Error (`Msg (Printf.sprintf "unknown workload %s (have: %s)" workload
                     (String.concat ", " workload_names)))
    else begin
      match res with
      | Error _ as e -> e
      | Ok res ->
      let shard_list =
        match socket with
        | Some path -> [ ("remote", Cluster.Router.Socket path) ]
        | None ->
          spawned_shards ~shards ~workers ~queue ~store_dir
      in
      let router =
        make_router ~res ~batch_max ~steal_min ~placement ~shards:shard_list ()
      in
      let health =
        Cluster.Health.start ~interval:health_interval ~down_after router
      in
      let cfg =
        { Cluster.Loadgen.requests; clients; universe; theta; seed;
          mode = (match open_rate with None -> Cluster.Loadgen.Closed
                                     | Some r -> Cluster.Loadgen.Open r);
          workload; size; deadline }
      in
      let after =
        Option.map
          (fun k ->
             let victim =
               match kill_shard with
               | Some sid -> sid
               | None -> List.hd (List.rev (Cluster.Router.shard_ids router))
             in
             (k, fun () -> Cluster.Router.kill router victim))
          kill_after
      in
      let report =
        Fun.protect
          ~finally:(fun () -> Cluster.Health.stop health)
          (fun () ->
             Cluster.Loadgen.run ?after
               ~submit:(Cluster.Router.submit_line router) cfg)
      in
      let router_stats = Cluster.Router.stats_json router in
      Cluster.Router.shutdown router;
      if json then
        print_endline
          (Server.Json.to_string
             (Server.Json.Obj
                [ ("loadgen", Cluster.Loadgen.report_json report);
                  ("router", router_stats) ]))
      else begin
        print_string (Cluster.Loadgen.report_text report);
        Printf.printf "router     %s\n" (Server.Json.to_string router_stats)
      end;
      Ok ()
    end
  in
  let term =
    Term.(term_result
            (const action $ socket $ shards_arg $ shard_workers_arg
             $ shard_queue_arg $ placement_arg $ batch_max_arg $ steal_min_arg
             $ requests $ clients $ universe $ theta $ seed $ open_rate
             $ workload $ size $ json $ kill_after $ kill_shard $ store_dir
             $ deadline $ health_interval_arg $ down_after_arg
             $ resilience_term))
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Zipfian YCSB-style load harness: closed/open loop against a spawned \
             cluster or a running server, reporting p50/p99/p999")
    term

(* ---- workloads ---- *)

let workloads_cmd =
  let action () =
    List.iter
      (fun w ->
         Printf.printf "%-8s %s\n" w.Workloads.Registry.name
           w.Workloads.Registry.description)
      Workloads.Registry.all;
    Ok ()
  in
  let term = Term.(term_result (const action $ const ())) in
  Cmd.v (Cmd.info "workloads" ~doc:"List the built-in benchmark workloads") term

(* Error discipline: every failure — bad arguments, a missing or corrupt
   trace, an unreadable fault plan, any uncaught exception — exits 2
   with a single line on stderr.  Scripts and CI can rely on it. *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) (String.trim s)

let () =
  Printexc.record_backtrace false;
  let doc = "SMALL: a structured memory access architecture for Lisp (reproduction)" in
  let info = Cmd.info "smallsim" ~version:"1.0.0" ~doc ~exits:Cmd.Exit.defaults in
  let group =
    Cmd.group info
      [ run_cmd; compile_cmd; trace_cmd; analyze_cmd; simulate_cmd;
        serve_cmd; submit_cmd; route_cmd; loadgen_cmd; workloads_cmd ]
  in
  match Cmd.eval ~catch:false group with
  | 0 -> exit 0
  | _ -> exit 2
  | exception e ->
    Printf.eprintf "smallsim: %s\n" (one_line (Printexc.to_string e));
    exit 2
