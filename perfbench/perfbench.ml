(* Request-path benchmark for the simulation service.

   One run measures one workload for a fixed number of seconds with two
   closed-loop clients and prints the end-to-end metrics (--trace 0) or
   the per-layer metrics (--trace 1) as the last line of standard output.
   Every ok reply is checked against a simulator oracle computed outside
   the timed window.  See perfbench/README.md. *)

module J = Server.Json
module Job = Server.Job
module Exec = Server.Exec
module Service = Server.Service
module Result_cache = Server.Result_cache
module Router = Cluster.Router

let now = Unix.gettimeofday
let clients = 2

(* ---- workloads and their seeded inputs ---- *)

type workload = File_cold | File_hot | Routed_zipf

let workloads = [ ("file_cold", File_cold); ("file_hot", File_hot); ("routed_zipf", Routed_zipf) ]

let name_of w = fst (List.find (fun (_, w') -> w' = w) workloads)

type scale = {
  prims : int;          (* primitives in the synthetic trace of the file workloads *)
  hot_configs : int;    (* configs the hit workloads draw from, cached at set-up *)
  prefix : int;         (* replies per client covered by the results digest *)
}

let full = { prims = 400_000; hot_configs = 8; prefix = 8 }
let smoke = { prims = 20_000; hot_configs = 4; prefix = 1 }

type config = { size : int; sim_seed : int }

let sim_config c =
  { Core.Simulator.default_config with table_size = c.size; seed = c.sim_seed }

(* All simulator seeds of a run start at [base], drawn from the run seed. *)
let base_of seed = 1 + Util.Rng.int (Util.Rng.create ~seed) 1_000_000_000

(* Warm-up keys use another table size, so they never collide with a
   measured key. *)
let warm_config seed c = { size = 128; sim_seed = base_of seed + c }

let hot_set scale seed =
  List.init scale.hot_configs (fun j -> { size = 256; sim_seed = base_of seed + 2 + j })

(* [stream w scale seed c] is client [c]'s request sequence: the same
   seed yields the same configs in the same order, however fast the
   replies come back. *)
let stream w scale seed c =
  match w with
  | File_cold ->
    let base = base_of seed and i = ref 0 in
    fun () ->
      incr i;
      { size = 256; sim_seed = base + 2 + (clients * !i) + c }
  | File_hot | Routed_zipf ->
    let hot = Array.of_list (hot_set scale seed) in
    let zipf = Cluster.Loadgen.sampler ~theta:0.99 ~n:(Array.length hot) in
    let rng = Util.Rng.create ~seed:((seed * 7919) + c + 1) in
    fun () -> hot.(zipf rng)

(* ---- files inside the checkout ---- *)

let work_root = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

let dirs_made = Atomic.make 0

let fresh_dir tag =
  let n = Atomic.fetch_and_add dirs_made 1 in
  let d = Filename.concat work_root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) n) in
  mkdir_p d;
  d

(* Runs this executable with [args], its output sent to stderr so the
   last line of our stdout stays the result; waits for it to end. *)
let run_self args =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr
      Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("perfbench child failed: " ^ String.concat " " args)

let smoke_args smoke_mode = if smoke_mode then [ "--smoke" ] else []

(* The file workloads' trace is [Trace.Synth.default] (its own fixed
   seed) at [scale.prims] primitives, whatever the run seed: the size of a
   synthetic trace swings with its seed (7.3 to 9.6 MB over ten seeds at
   400k primitives), and every per-request cost of these workloads scales
   with it.  It is generated in a child process: the service only ever
   sees the file, and the generator's memory stays out of our peak RSS. *)
let generate_trace ~scale path =
  let cap = Trace.Synth.generate { Trace.Synth.default with length = scale.prims } in
  Trace.Io.save ~format:Trace.Io.Binary path cap

(* ---- replies ---- *)

type reply = { ok : bool; cached : bool; shard : string; body : string }

let failed_reply = { ok = false; cached = false; shard = ""; body = "" }

let find s sub =
  let n = String.length sub and h = String.length s in
  let rec matches i k = k = n || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + n > h then -1 else if matches i 0 then i else go (i + 1) in
  go 0

let contains s sub = find s sub >= 0

let string_field s key =
  let marker = Printf.sprintf "\"%s\":\"" key in
  match find s marker with
  | -1 -> ""
  | i ->
    let j = i + String.length marker in
    String.sub s j (String.index_from s j '"' - j)

(* The JSON object under [key], by brace matching outside strings. *)
let object_field s key =
  let marker = Printf.sprintf "\"%s\":{" key in
  match find s marker with
  | -1 -> ""
  | i ->
    let start = i + String.length marker - 1 in
    let rec go j depth in_str =
      let c = s.[j] in
      if in_str then
        if c = '\\' then go (j + 2) depth true else go (j + 1) depth (c <> '"')
      else if c = '"' then go (j + 1) depth true
      else if c = '{' then go (j + 1) (depth + 1) false
      else if c = '}' then
        if depth = 1 then String.sub s start (j - start + 1) else go (j + 1) (depth - 1) false
      else go (j + 1) depth false
    in
    go start 0 false

let reply_of_line line =
  { ok = contains line "\"status\":\"ok\"";
    cached = contains line "\"cached\":true";
    shard = string_field line "shard";
    body = object_field line "result" }

(* ---- the system under test ---- *)

type system = {
  source : string;     (* the (trace-file ...) or (workload ...) clause *)
  submit : Spans.recorder option -> rid:int -> parent:int -> string -> reply Lazy.t;
      (* forced after the latency is taken: decoding a reply line is the
         client's work, not the system's *)
  service_of : string -> Service.t;   (* by shard id; "" for the lone service *)
  registries : Obs.Registry.t list;
  router_registry : Obs.Registry.t option;
  open_s : float;      (* seconds spent creating services (opening stores) *)
  shutdown : unit -> unit;
}

let with_span = Spans.with_span

let file_system ~dir ~trace =
  let t0 = now () in
  let svc =
    Service.create ~store_dir:(Filename.concat dir "store") ~workers:2 ~queue_capacity:64 ()
  in
  let open_s = now () -. t0 in
  let submit r ~rid ~parent line =
    match with_span r ~rid ~parent "service.parse" (fun _ -> Job.parse line) with
    | Error msg -> failwith ("request did not parse: " ^ msg)
    | Ok job ->
      Lazy.from_val
        (match with_span r ~rid ~parent "service.submit" (fun _ -> Service.submit svc job) with
         | Error _ -> failed_reply
         | Ok join ->
           let resp = with_span r ~rid ~parent "service.join" (fun _ -> join ()) in
           (match resp.Service.outcome with
            | Error _ -> failed_reply
            | Ok out ->
              let body =
                with_span r ~rid ~parent "service.render" (fun _ ->
                    J.to_string (Exec.output_to_json out))
              in
              { ok = true; cached = resp.Service.cached; shard = ""; body }))
  in
  { source = Printf.sprintf "(trace-file %S)" trace;
    submit;
    service_of = (fun _ -> svc);
    registries = [ Service.metrics svc ];
    router_registry = None;
    open_s;
    shutdown = (fun () -> Service.shutdown svc) }

(* Two in-process shards behind a cache-aware router with default knobs,
   each a one-worker service with its own log store, wired over
   socketpairs. *)
let routed_system ~dir =
  let shard sid =
    let t0 = now () in
    let svc =
      Service.create ~shard_id:sid ~store_dir:(Filename.concat dir sid) ~workers:1
        ~queue_capacity:64 ()
    in
    let open_s = now () -. t0 in
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let d =
      Domain.spawn (fun () ->
          let ic = Unix.in_channel_of_descr b in
          let oc = Unix.out_channel_of_descr (Unix.dup b) in
          ignore (Service.serve_channels svc ic oc);
          Service.shutdown svc;
          (try close_out oc with Sys_error _ -> ());
          try close_in ic with Sys_error _ -> ())
    in
    let ic = Unix.in_channel_of_descr a in
    let oc = Unix.out_channel_of_descr (Unix.dup a) in
    ((sid, svc), (sid, Router.Channels (ic, oc)), d, open_s)
  in
  let shards = List.map shard [ "s0"; "s1" ] in
  let services = List.map (fun (s, _, _, _) -> s) shards in
  let metrics = Obs.Registry.create () in
  let router =
    Router.create ~metrics ~shards:(List.map (fun (_, e, _, _) -> e) shards) ()
  in
  let submit r ~rid ~parent line =
    let join =
      with_span r ~rid ~parent "router.submit" (fun _ -> Router.submit_line router line)
    in
    let line = with_span r ~rid ~parent "router.join" (fun _ -> join ()) in
    lazy (reply_of_line line)
  in
  { source = "(workload lyra)";
    submit;
    service_of = (fun sid -> List.assoc sid services);
    registries = List.map (fun (_, svc) -> Service.metrics svc) services;
    router_registry = Some metrics;
    open_s = List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0. shards;
    shutdown =
      (fun () ->
         Router.shutdown router;
         List.iter (fun (_, _, d, _) -> Domain.join d) shards) }

let lyra () = Option.get (Workloads.Registry.find "lyra")

let line sys c = Printf.sprintf "(simulate %s (size %d) (seed %d))" sys.source c.size c.sim_seed

(* ---- closed-loop clients ---- *)

type sample = { rid : int; cfg : config; latency : float; reply : reply }

(* Per-client tallies of what the stage spans did, merged at the end. *)
type stage_tally = {
  mutable mismatches : int;      (* stage result differs from the served reply *)
  mutable digest_bytes : int;
  mutable kernel_events : int;
  mutable traces : string list;  (* distinct trace digests *)
}

(* The traced run's second span tree: the public calls one request is made
   of, replayed after the traced pass.  A served hit is read back from the
   serving shard's cache; a served miss is recomputed stage by stage and
   stored into [shadow]. *)
let stage_spans sys ~shadow r tally ~rid l reply =
  with_span (Some r) ~rid ~parent:(-1) "stages" @@ fun root ->
  let sp name f = with_span (Some r) ~rid ~parent:root name (fun _ -> f ()) in
  let job = Result.get_ok (sp "stage.parse" (fun () -> Job.parse l)) in
  let trace_digest = sp "stage.digest" (fun () -> Exec.trace_digest job.Job.source) in
  (match job.Job.source with
   | Job.Trace_file p -> tally.digest_bytes <- tally.digest_bytes + (Unix.stat p).Unix.st_size
   | Job.Workload _ -> ());
  if not (List.mem trace_digest tally.traces) then tally.traces <- trace_digest :: tally.traces;
  let key = Result_cache.key ~trace_digest ~job_digest:(Job.digest job) in
  let out =
    if reply.cached then
      match sp "stage.find" (fun () -> Result_cache.find (Service.cache (sys.service_of reply.shard)) key) with
      | None -> None
      | Some stored ->
        (match sp "stage.decode" (fun () -> Exec.output_of_sexp (Sexp.parse stored)) with
         | Ok out -> Some out
         | Error _ -> None)
    else begin
      ignore (sp "stage.find" (fun () -> Result_cache.find shadow key) : string option);
      let pre =
        match job.Job.source with
        | Job.Trace_file p ->
          (match sp "stage.open" (fun () -> Trace.Io.open_path p) with
           | Trace.Io.Binary_source src ->
             sp "stage.preprocess" (fun () -> Trace.Preprocess.run_source src)
           | Trace.Io.Sexp_capture _ -> failwith "the benchmark writes binary traces")
        | Job.Workload w ->
          (* the registry preprocesses a built-in workload once per
             process; per request this is only the lookup *)
          sp "stage.open" (fun () ->
              Workloads.Registry.preprocessed (Option.get (Workloads.Registry.find w)))
      in
      let packed = sp "stage.pack" (fun () -> Core.Simulator.pack pre) in
      let config =
        match job.Job.spec with Job.Simulate c -> c | _ -> failwith "not a simulate job"
      in
      let stats = sp "stage.kernel" (fun () -> Core.Simulator.run_packed config packed) in
      tally.kernel_events <- tally.kernel_events + Core.Simulator.packed_events packed;
      let out = Exec.Simulate_out stats in
      sp "stage.store" (fun () ->
          Result_cache.store shadow key (Sexp.to_string (Exec.output_to_sexp out)));
      Some out
    end
  in
  let body =
    match out with
    | None -> ""
    | Some out -> sp "stage.render" (fun () -> J.to_string (Exec.output_to_json out))
  in
  if body <> reply.body then tally.mismatches <- tally.mismatches + 1

(* Drives one client until [stop i] holds before its [i]-th request; with
   a recorder, each request records its path spans. *)
let client ?recorder sys ~next ~c ~stop =
  let acc = ref [] and i = ref 0 in
  while not (stop !i) do
    let cfg = next () in
    let rid = (c * 100_000_000) + !i in
    let t0 = now () in
    let reply =
      with_span recorder ~rid ~parent:(-1) "request" (fun id ->
          sys.submit recorder ~rid ~parent:id (line sys cfg))
    in
    let latency = now () -. t0 in
    acc := { rid; cfg; latency; reply = Lazy.force reply } :: !acc;
    incr i
  done;
  List.rev !acc

let run_clients f =
  List.init clients (fun c -> Domain.spawn (fun () -> f c)) |> List.map Domain.join

(* The cache fill of the hit workloads: [cfgs] sent by the two clients,
   each taking every other one. *)
let fill sys cfgs =
  let replies =
    run_clients (fun c ->
        let mine = ref (List.filteri (fun i _ -> i mod clients = c) cfgs) in
        let n = List.length !mine in
        client sys ~c ~stop:(fun i -> i >= n) ~next:(fun () ->
            let cfg = List.hd !mine in
            mine := List.tl !mine;
            cfg))
  in
  if not (List.for_all (List.for_all (fun s -> s.reply.ok)) replies) then
    failwith "cache fill failed"

type setup = { sys : system; dir : string; trace : string option; setup_s : float }

(* Everything a workload needs before its first measured request: the
   trace file or the traced workload, the stores, and the cache fill.
   [trace] reuses an already generated file. *)
let setup ?trace ~smoke_mode w scale seed =
  let dir = fresh_dir (name_of w) in
  let t0 = now () in
  let sys, trace =
    match w with
    | File_cold | File_hot ->
      let trace =
        match trace with
        | Some t -> t
        | None ->
          let t = Filename.concat dir "trace.bin" in
          run_self ("--gen-trace" :: t :: smoke_args smoke_mode);
          t
      in
      (file_system ~dir ~trace, Some trace)
    | Routed_zipf ->
      ignore (Exec.trace_digest (Job.Workload "lyra"));
      ignore (Workloads.Registry.preprocessed (lyra ()));
      (routed_system ~dir, None)
  in
  if w <> File_cold then fill sys (hot_set scale seed @ List.init clients (warm_config seed));
  { sys; dir; trace; setup_s = now () -. t0 }

let teardown s = s.sys.shutdown (); rm_rf s.dir


let warm_up sys seed =
  ignore
    (run_clients (fun c ->
         let cfg = warm_config seed c in
         client sys ~next:(fun () -> cfg) ~c ~stop:(fun i -> i >= 2)))

(* ---- process measurements ---- *)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  go ()

(* ---- the measured window ---- *)

type window = {
  samples : sample list list;     (* per client, in stream order *)
  wall : float;
  cpu : float;
  rss_mb : float;
  before : Scrape.snap;
  after : Scrape.snap;
  router_before : Scrape.snap;
  router_after : Scrape.snap;
}

let measure sys w scale seed ~seconds =
  let regs () = Scrape.snapshot sys.registries in
  let rregs () = Scrape.snapshot (Option.to_list sys.router_registry) in
  let before = regs () and router_before = rregs () in
  let cpu0 = cpu_seconds () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let samples =
    run_clients (fun c ->
        client sys ~next:(stream w scale seed c) ~c ~stop:(fun _ -> now () >= deadline))
  in
  let wall = now () -. t0 in
  let cpu = cpu_seconds () -. cpu0 in
  { samples; wall; cpu; rss_mb = peak_rss_mb (); before; after = regs ();
    router_before; router_after = rregs () }

let all_samples win = List.concat win.samples
let count p xs = List.fold_left (fun n x -> if p x then n + 1 else n) 0 xs

let latencies_ms samples =
  Array.of_list (List.map (fun s -> 1000. *. s.latency) samples)

(* ---- correctness ---- *)

(* Oracle result bodies for every distinct config, computed outside the
   timed window by the simulator on an independently preprocessed trace
   (the capture path, not the mapped-source path the service takes).
   [Simulator.run config pre] is [run_packed config (pack pre)]; the trace
   is packed once. *)
let oracle ~trace cfgs =
  let pre =
    match trace with
    | Some path -> Trace.Preprocess.run (Trace.Io.load path)
    | None -> Trace.Preprocess.run (Workloads.Registry.trace (lyra ()))
  in
  let packed = Core.Simulator.pack pre in
  let cfgs = Array.of_list (List.sort_uniq compare cfgs) in
  let body c =
    J.to_string
      (Exec.output_to_json
         (Exec.Simulate_out (Core.Simulator.run_packed (sim_config c) packed)))
  in
  let results =
    run_clients (fun k ->
        let acc = ref [] in
        Array.iteri (fun i c -> if i mod clients = k then acc := (c, body c) :: !acc) cfgs;
        !acc)
  in
  let tbl = Hashtbl.create 256 in
  List.iter (List.iter (fun (c, b) -> Hashtbl.replace tbl c b)) results;
  tbl

let mismatches tbl samples =
  count (fun s -> s.reply.ok && Hashtbl.find_opt tbl s.cfg <> Some s.reply.body) samples

(* MD5 over the bodies of each client's first [prefix] replies: the same
   seed must give the same digest on every run. *)
let results_digest scale win =
  let buf = Buffer.create 4096 in
  let complete =
    List.for_all
      (fun samples ->
         List.iteri
           (fun i s -> if i < scale.prefix then (Buffer.add_string buf s.reply.body; Buffer.add_char buf '\n'))
           samples;
         List.length samples >= scale.prefix)
      win.samples
  in
  (Digest.to_hex (Digest.string (Buffer.contents buf)), complete)

(* ---- output ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- one run ---- *)

type outcome = { ok : bool; attempted : int; failed : int; metrics : (string * float * string) list }

let end_to_end win ~setup_s =
  let samples = all_samples win in
  let ok = List.filter (fun s -> s.reply.ok) samples in
  let lat = latencies_ms samples in
  let n = float_of_int (List.length samples) in
  log "  samples %d (%d cached), p90 has %d beyond it; p10 %.2f p25 %.2f p75 %.2f p99 %.2f ms"
    (List.length samples) (count (fun s -> s.reply.cached) samples) (Stats.beyond lat 0.9)
    (Stats.percentile lat 0.1) (Stats.percentile lat 0.25) (Stats.percentile lat 0.75)
    (Stats.percentile lat 0.99);
  [ ("throughput_rps", float_of_int (List.length ok) /. win.wall, "1/s");
    ("latency_p50_ms", Stats.percentile lat 0.5, "ms");
    ("latency_p90_ms", Stats.percentile lat 0.9, "ms");
    ("cpu_ms_per_req", Stats.ratio (1000. *. win.cpu) n, "ms");
    ("peak_rss_mb", win.rss_mb, "MB");
    ("setup_s", setup_s, "s") ]

(* Distinct keys whose reply came from an execution: the executions the
   scheduler ran beyond these were duplicated work. *)
let executed_distinct samples =
  List.filter (fun s -> s.reply.ok && not s.reply.cached) samples
  |> List.map (fun s -> s.cfg)
  |> List.sort_uniq compare |> List.length

type replay = {
  replayed : sample list;
  spans : Spans.span list;
  tallies : stage_tally list;
  open_s : float;          (* store opening of the replayed system *)
}

(* Requests per client the traced replay covers at most: a hit workload
   answers ~100k requests in a run, and its spans would not fit in memory. *)
let replay_cap = 5000

(* The traced replay: a fresh system from the same inputs, the same
   per-client request counts (up to [replay_cap]), path and stage spans
   on. *)
let traced_replay w scale seed ~smoke_mode ~trace ~counts =
  let s = setup ?trace ~smoke_mode w scale seed in
  Fun.protect ~finally:(fun () -> teardown s) @@ fun () ->
  warm_up s.sys seed;
  let shadow = Result_cache.create ~store_dir:(Filename.concat s.dir "shadow") () in
  let recorders = List.init clients (fun _ -> Spans.recorder ()) in
  let tallies =
    List.init clients (fun _ ->
        { mismatches = 0; digest_bytes = 0; kernel_events = 0; traces = [] })
  in
  let samples =
    run_clients (fun c ->
        client s.sys ~recorder:(List.nth recorders c) ~next:(stream w scale seed c) ~c
          ~stop:(fun i -> i >= List.nth counts c))
  in
  (* the stage spans run after the traced pass, so they do not disturb
     its timing and the overhead measures span recording alone *)
  ignore
    (run_clients (fun c ->
         let r = List.nth recorders c and tally = List.nth tallies c in
         List.iter
           (fun smp ->
              if smp.reply.ok then
                stage_spans s.sys ~shadow r tally ~rid:smp.rid (line s.sys smp.cfg) smp.reply)
           (List.nth samples c)));
  { replayed = List.concat samples; spans = Spans.all recorders; tallies;
    open_s = s.sys.open_s }

(* Per-layer metrics: the registries scraped over the untraced window,
   then the report of the replay's span dump. *)
let per_layer ~name ~seed sys win r =
  let samples = all_samples win in
  let lat = latencies_ms samples in
  let sum f = float_of_int (List.fold_left (fun a t -> a + f t) 0 r.tallies) in
  let traces = List.sort_uniq compare (List.concat_map (fun t -> t.traces) r.tallies) in
  let header =
    [ ("untraced_p50_ms", Stats.percentile lat 0.5);
      ("digest_bytes", sum (fun t -> t.digest_bytes));
      ("kernel_events", sum (fun t -> t.kernel_events));
      ("distinct_traces", float_of_int (List.length traces));
      ("stage_mismatches", sum (fun t -> t.mismatches)) ]
  in
  let dump = Filename.concat work_root (Printf.sprintf "spans-%s-seed%d.tsv" name seed) in
  Spans.write dump ~header r.spans;
  let header, spans = Spans.read dump in
  let rep = Report.of_spans ~header spans in
  log "  span dump %s (%d spans, stage mismatches %.0f)" dump (List.length spans)
    (sum (fun t -> t.mismatches));
  Report.print_table stderr rep;
  let router = Option.map (fun _ -> (win.router_before, win.router_after)) sys.router_registry in
  let scraped =
    Scrape.metrics ~before:win.before ~after:win.after ?router
      { Scrape.mean_latency_ms = Stats.mean lat;
        executed_distinct = executed_distinct samples }
  in
  scraped @ [ ("store.open_ms", 1000. *. r.open_s, "ms") ] @ Report.metrics rep

(* Set-up is timed three times, each in a fresh process: two probes,
   then the set-up this run measures on. *)
let setup_probes w ~seed ~smoke_mode =
  List.init 2 (fun k ->
      let out = Filename.concat work_root (Printf.sprintf "probe-%d-%d" (Unix.getpid ()) k) in
      run_self
        ([ "--setup-probe"; out; "--workload"; name_of w; "--seed"; string_of_int seed ]
         @ smoke_args smoke_mode);
      let v = float_of_string (String.trim (In_channel.with_open_text out In_channel.input_all)) in
      Sys.remove out;
      v)

let run_once w scale ~seed ~seconds ~trace_mode ~smoke_mode =
  let name = name_of w in
  let probes = if trace_mode then [] else setup_probes w ~seed ~smoke_mode in
  let s = setup ~smoke_mode w scale seed in
  let setup_s = Stats.median_list (s.setup_s :: probes) in
  log "%s seed %d: setup %.3f s (runs %s)" name seed setup_s
    (String.concat ", " (List.map (Printf.sprintf "%.3f") (s.setup_s :: probes)));
  let win =
    Fun.protect ~finally:(fun () -> s.sys.shutdown ()) @@ fun () ->
    warm_up s.sys seed;
    measure s.sys w scale seed ~seconds
  in
  let samples = all_samples win in
  let e2e = end_to_end win ~setup_s in
  let replay =
    if trace_mode then
      Some
        (traced_replay w scale seed ~smoke_mode ~trace:s.trace
           ~counts:(List.map (fun smp -> min replay_cap (List.length smp)) win.samples))
    else None
  in
  let replayed = match replay with Some r -> r.replayed | None -> [] in
  let tbl = oracle ~trace:s.trace (List.map (fun smp -> smp.cfg) (samples @ replayed)) in
  rm_rf s.dir;
  let wrong = mismatches tbl samples + mismatches tbl replayed in
  let stage_wrong =
    match replay with
    | Some r -> List.fold_left (fun a t -> a + t.mismatches) 0 r.tallies
    | None -> 0
  in
  let digest, complete = results_digest scale win in
  let failed = count (fun s -> not s.reply.ok) samples in
  log "  results digest %s over the first %d replies per client%s" digest scale.prefix
    (if complete then "" else " (INCOMPLETE)");
  log "  oracle mismatches %d, stage mismatches %d, failed %d of %d" wrong stage_wrong failed
    (List.length samples);
  List.iter (fun (k, v, u) -> log "  %-24s %14.4f %s" k v u) e2e;
  let metrics =
    match replay with
    | None -> e2e
    | Some r ->
      let m = per_layer ~name ~seed s.sys win r in
      List.iter (fun (k, v, u) -> log "  %-34s %14.4f %s" k v u) m;
      m
  in
  { ok = wrong = 0 && stage_wrong = 0 && complete;
    attempted = List.length samples; failed; metrics }

(* ---- self-test ---- *)

let selftest () =
  let failures = ref 0 in
  let check name got want =
    if Float.abs (got -. want) > 1e-9 then begin
      incr failures;
      Printf.printf "FAIL %s: got %.12g, want %.12g\n" name got want
    end
    else Printf.printf "ok   %s = %g\n" name got
  in
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100" (Stats.percentile xs 0.5) 50.;
  check "p90 of 1..100" (Stats.percentile xs 0.9) 90.;
  check "beyond p90 of 1..100" (float_of_int (Stats.beyond xs 0.9)) 10.;
  check "p100 of 1..100" (Stats.percentile xs 1.0) 100.;
  check "p50 of empty" (Stats.percentile [||] 0.5) 0.;
  check "median of 3" (Stats.median_list [ 3.; 1.; 2. ]) 2.;
  check "ratio by zero" (Stats.ratio 1. 0.) 0.;
  check "union with overlap" (Stats.covered ~lo:0. ~hi:10. [ (1., 4.); (3., 6.); (8., 9.) ]) 6.;
  check "union clipped" (Stats.covered ~lo:2. ~hi:5. [ (0., 3.); (4., 9.) ]) 2.;
  (* two requests: a 10 ms path span with submit and join children, and
     a stage tree covering 8 ms of it *)
  let mk id parent rid name start stop = { Spans.id; parent; rid; name; start; stop } in
  let spans =
    [ mk 0 (-1) 1 "request" 0.000 0.010;
      mk 1 0 1 "service.submit" 0.001 0.003;
      mk 2 0 1 "service.join" 0.003 0.009;
      mk 3 (-1) 1 "stages" 0.020 0.030;
      mk 4 3 1 "stage.digest" 0.020 0.022;
      mk 5 3 1 "stage.kernel" 0.022 0.028;
      mk 6 (-1) 2 "request" 0.100 0.120;
      mk 7 6 2 "service.submit" 0.100 0.104;
      mk 8 (-1) 2 "stages" 0.130 0.150;
      mk 9 8 2 "stage.digest" 0.130 0.134;
      mk 10 8 2 "stage.preprocess" 0.134 0.146 ]
  in
  let dump = Filename.concat work_root "selftest-spans.tsv" in
  Spans.write dump ~header:[ ("untraced_p50_ms", 8.); ("kernel_events", 600.) ] spans;
  let header, spans' = Spans.read dump in
  Sys.remove dump;
  check "dump round-trip" (float_of_int (List.length spans')) (float_of_int (List.length spans));
  let rep = Report.of_spans ~header spans' in
  let self name = 1000. *. (Report.summary rep name).Report.self in
  check "request self ms" (self "request") (2. +. 16.);
  check "stages self ms" (self "stages") (2. +. 4.);
  check "kernel self ms" (self "stage.kernel") 6.;
  check "digest ms per request" (Report.per_request_ms rep "stage.digest") 3.;
  check "traced p50 ms" rep.Report.request_p50_ms 10.;
  check "coverage" rep.Report.coverage ((2. +. 6. +. 4. +. 12.) /. 30.);
  check "overhead ratio" rep.Report.overhead_ratio 0.25;
  let metric name = let _, v, _ = List.find (fun (n, _, _) -> n = name) (Report.metrics rep) in v in
  check "prims per second" (metric "simulator.prims_per_s") 100_000.;
  check "preprocess over kernel" (metric "suspicion.preprocess_over_kernel") 2.;
  check "reply object field"
    (float_of_int
       (String.length
          (object_field {|{"status":"ok","result":{"a":{"b":"}"},"c":1},"shard":"s1"}|} "result")))
    (float_of_int (String.length {|{"a":{"b":"}"},"c":1}|}));
  if !failures = 0 then (print_endline "selftest passed"; 0)
  else (Printf.printf "selftest: %d failures\n" !failures; 1)

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let smoke_mode = ref false and self = ref false in
  let gen_trace = ref "" and probe = ref "" and report = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME file_cold | file_hot | routed_zipf");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics from a traced replay");
      ("--smoke", Arg.Set smoke_mode, " small inputs; without --workload, a pass over all workloads");
      ("--selftest", Arg.Set self, " check the benchmark's own arithmetic");
      ("--report", Arg.Set_string report, "DUMP print the report of a span dump");
      ("--gen-trace", Arg.Set_string gen_trace, "PATH (internal) write the file workloads' trace");
      ("--setup-probe", Arg.Set_string probe, "OUT (internal) time one set-up, write seconds to OUT") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let scale = if !smoke_mode then smoke else full in
  let workload_arg () =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> prerr_endline ("unknown workload " ^ !workload); exit 2
  in
  mkdir_p work_root;
  if !self then exit (selftest ())
  else if !report <> "" then begin
    let header, spans = Spans.read !report in
    let rep = Report.of_spans ~header spans in
    Report.print_table stdout rep;
    List.iter (fun (k, v, u) -> Printf.printf "%-34s %14.4f %s\n" k v u) (Report.metrics rep)
  end
  else if !gen_trace <> "" then generate_trace ~scale !gen_trace
  else if !probe <> "" then begin
    let s = setup ~smoke_mode:!smoke_mode (workload_arg ()) scale !seed in
    teardown s;
    Out_channel.with_open_text !probe (fun oc -> Printf.fprintf oc "%.9f\n" s.setup_s)
  end
  else if !smoke_mode && !workload = "" then begin
    let all_ok =
      List.for_all
        (fun (_, w) ->
           List.for_all
             (fun trace_mode ->
                let o = run_once w scale ~seed:!seed ~seconds:!seconds ~trace_mode ~smoke_mode:true in
                o.ok && o.failed = 0)
             [ false; true ])
        workloads
    in
    print_endline (if all_ok then "smoke passed" else "smoke FAILED");
    exit (if all_ok then 0 else 1)
  end
  else begin
    let o =
      run_once (workload_arg ()) scale ~seed:!seed ~seconds:!seconds ~trace_mode:(!trace = 1)
        ~smoke_mode:!smoke_mode
    in
    print_result ~correct:o.ok ~attempted:o.attempted ~failed:o.failed o.metrics;
    exit (if o.ok then 0 else 1)
  end
