(* Tests for the cluster layer: consistent-hash ring properties (owner
   stability, minimal remap on shard removal), the zipfian sampler, and
   the cache-aware router over in-process shards — byte-identity with a
   single-process service, cache-aware vs uniform placement, failover
   after shard death, and the load-harness accounting. *)

module Ring = Cluster.Ring
module Router = Cluster.Router
module LG = Cluster.Loadgen

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---- ring ---- *)

let ids4 = [ "a"; "b"; "c"; "d" ]

let key i = Printf.sprintf "key-%d" i

let test_ring_owners () =
  let r = Ring.create ids4 in
  Alcotest.(check (list string)) "ids kept" ids4 (Ring.ids r);
  for i = 0 to 199 do
    let o = Ring.owner r (key i) in
    let os = Ring.owners r (key i) in
    Alcotest.(check string) "owner heads the preference order" o (List.hd os);
    Alcotest.(check (list string)) "preference order covers every shard" ids4
      (List.sort compare os);
    (* determinism: a second ring built from the same ids agrees *)
    Alcotest.(check string) "placement is a pure function of ids"
      o (Ring.owner (Ring.create ids4) (key i))
  done

let test_ring_balance () =
  let r = Ring.create ids4 in
  let counts = Hashtbl.create 4 in
  for i = 0 to 999 do
    let o = Ring.owner r (key i) in
    Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))
  done;
  List.iter
    (fun id ->
       let n = Option.value ~default:0 (Hashtbl.find_opt counts id) in
       Alcotest.(check bool)
         (Printf.sprintf "shard %s owns a non-trivial share (%d/1000)" id n)
         true
         (n > 50))
    ids4

let test_ring_minimal_remap () =
  let r = Ring.create ids4 in
  let r' = Ring.remove r "c" in
  Alcotest.(check (list string)) "member removed" [ "a"; "b"; "d" ] (Ring.ids r');
  let moved = ref 0 in
  for i = 0 to 999 do
    let before = Ring.owner r (key i) in
    if before = "c" then incr moved
    else
      (* the defining property: keys the removed shard did not own keep
         their owner, so surviving shards keep their caches *)
      Alcotest.(check string)
        (Printf.sprintf "%s keeps its owner" (key i))
        before (Ring.owner r' (key i))
  done;
  Alcotest.(check bool) "some keys did move" true (!moved > 0);
  Alcotest.(check bool)
    (Printf.sprintf "only ~1/4 of keys remap (%d/1000)" !moved)
    true
    (!moved < 500)

let test_ring_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Ring.create: no shards")
    (fun () -> ignore (Ring.create []));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Ring.create: duplicate shard id a") (fun () ->
      ignore (Ring.create [ "a"; "a" ]));
  let r = Ring.create [ "a" ] in
  Alcotest.check_raises "last shard"
    (Invalid_argument "Ring.remove: cannot remove the last shard") (fun () ->
      ignore (Ring.remove r "a"))

(* ---- zipf sampler ---- *)

let test_zipf_skew_and_determinism () =
  let n = 32 in
  let sample = LG.sampler ~theta:0.99 ~n in
  let rng = Util.Rng.create ~seed:7 in
  let counts = Array.make n 0 in
  for _ = 1 to 4000 do
    let r = sample rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < n);
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 is the mode" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  Alcotest.(check bool)
    (Printf.sprintf "zipf 0.99 is skewed (rank 0 drew %d/4000)" counts.(0))
    true
    (counts.(0) > 2 * (4000 / n));
  (* same seed, same stream *)
  let a = Util.Rng.create ~seed:11 and b = Util.Rng.create ~seed:11 in
  for _ = 1 to 100 do
    Alcotest.(check int) "deterministic" (sample a) (sample b)
  done

let test_zipf_uniform_degenerate () =
  let n = 8 in
  let sample = LG.sampler ~theta:0.0 ~n in
  let rng = Util.Rng.create ~seed:3 in
  let counts = Array.make n 0 in
  for _ = 1 to 4000 do
    let r = sample rng in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iteri
    (fun i c ->
       Alcotest.(check bool)
         (Printf.sprintf "theta 0: rank %d near uniform (%d/4000)" i c)
         true
         (c > 4000 / n / 2 && c < 4000 / n * 2))
    counts

(* ---- in-process shards ---- *)

(* A shard is a Service speaking the wire protocol over a socketpair,
   served by its own domain.  The write sides are dup'd so the channel
   pairs never share an fd (each side is closed exactly once). *)
let in_process_shard sid =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let svc = Server.Service.create ~shard_id:sid ~workers:2 ~queue_capacity:32 () in
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
  ((sid, Router.Channels (ic, oc)), d)

let with_router ?(n = 2) ?placement ?steal_min ?batch_max f =
  let shards, domains =
    List.split (List.init n (fun i -> in_process_shard (Printf.sprintf "s%d" i)))
  in
  let t = Router.create ?placement ?steal_min ?batch_max ~shards () in
  Fun.protect
    ~finally:(fun () ->
        Router.shutdown t;
        List.iter Domain.join domains)
    (fun () -> f t)

(* A small synthetic trace keeps each simulate job at milliseconds. *)
let saved_synth_trace =
  lazy
    (let path = Filename.temp_file "routing" ".smtb" in
     Trace.Io.save ~format:Trace.Io.Binary path
       (Trace.Synth.generate { Trace.Synth.default with length = 3000 });
     path)

let job_line seed =
  Printf.sprintf "(simulate (trace-file \"%s\") (size 64) (seed %d))"
    (Lazy.force saved_synth_trace) seed

(* Strip the two fields that legitimately differ between a routed and a
   direct run: wall-clock [elapsed] and the answering [shard]. *)
let strip_volatile line =
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
          while
            !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}'
          do
            incr j
          done;
        String.sub line 0 i ^ String.sub line !j (String.length line - !j)
      end
      else find (i + 1)
    in
    find 0
  in
  strip "elapsed" (strip "shard" line)

let test_router_matches_direct () =
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let direct_svc = Server.Service.create ~workers:2 ~queue_capacity:32 () in
  let direct =
    Fun.protect
      ~finally:(fun () -> Server.Service.shutdown direct_svc)
      (fun () ->
         List.concat_map
           (fun s -> Server.Service.handle_line direct_svc (job_line s))
           seeds)
  in
  with_router ~n:2 @@ fun t ->
  let routed = List.concat_map (fun s -> Router.handle_line t (job_line s)) seeds in
  List.iter2
    (fun d r ->
       Alcotest.(check string) "routed reply byte-identical to direct"
         (strip_volatile d) (strip_volatile r))
    direct routed;
  (* the same jobs as one (batch ...): replies keep request order *)
  let batch =
    "(batch " ^ String.concat " " (List.map job_line seeds) ^ ")"
  in
  let batched = Router.handle_line t batch in
  Alcotest.(check int) "one reply per batch element" (List.length seeds)
    (List.length batched);
  (* the first loop warmed the cluster, so the batch replies are cache
     hits; modulo the cached flag they are the direct bytes, in order *)
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
  List.iter2
    (fun d r ->
       Alcotest.(check string) "batched reply matches direct, in request order"
         (decache (strip_volatile d))
         (decache (strip_volatile r)))
    direct batched

let test_router_stats_and_ping () =
  with_router ~n:2 @@ fun t ->
  (match Router.handle_line t "(ping)" with
   | [ l ] ->
     Alcotest.(check bool) "pong" true
       (contains l "\"pong\":true" && contains l "\"router\":true")
   | _ -> Alcotest.fail "one pong line expected");
  match Router.handle_line t "(stats)" with
  | [ l ] ->
    Alcotest.(check bool) "router stats" true
      (contains l "\"router\":true" && contains l "\"shards_total\":2")
  | _ -> Alcotest.fail "one stats line expected"

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

let test_cache_aware_placement () =
  with_router ~n:2 @@ fun t ->
  let first = Router.submit_line t (job_line 42) () in
  Alcotest.(check bool) "cold run executes" true
    (contains first "\"cached\":false");
  let shard_of reply =
    if contains reply "\"shard\":\"s0\"" then "s0"
    else if contains reply "\"shard\":\"s1\"" then "s1"
    else Alcotest.fail "reply names no shard"
  in
  let home = shard_of first in
  for _ = 1 to 4 do
    let r = Router.submit_line t (job_line 42) () in
    Alcotest.(check bool) "repeat is a cache hit" true (contains r "\"cached\":true");
    Alcotest.(check string) "repeat lands on the owning shard" home (shard_of r)
  done;
  let stats = Router.stats_json t in
  Alcotest.(check bool) "cache placements counted" true
    (int_at [ "placement"; "cache" ] stats >= 4)

(* A trace file rewritten under the same path must not keep its old
   placement key: the repeat is re-hashed, so it is not placed as a
   cache hit, and it answers for the new content. *)
let test_rewritten_trace_rehashed () =
  let path = Filename.temp_file "rewrite" ".smtb" in
  let save length =
    Trace.Io.save ~format:Trace.Io.Binary path
      (Trace.Synth.generate { Trace.Synth.default with length })
  in
  let line =
    Printf.sprintf "(simulate (trace-file \"%s\") (size 64) (seed 7))" path
  in
  save 2000;
  with_router ~n:2 @@ fun t ->
  let first = Router.submit_line t line () in
  Alcotest.(check bool) "cold run executes" true (contains first "\"cached\":false");
  let repeat = Router.submit_line t line () in
  Alcotest.(check bool) "repeat is a cache hit" true (contains repeat "\"cached\":true");
  let cache_placements () = int_at [ "placement"; "cache" ] (Router.stats_json t) in
  let before = cache_placements () in
  save 2500;
  let oracle =
    let svc = Server.Service.create ~workers:1 ~queue_capacity:4 () in
    Fun.protect
      ~finally:(fun () -> Server.Service.shutdown svc)
      (fun () -> Server.Service.handle_line svc line)
  in
  let rewritten = Router.handle_line t line in
  Alcotest.(check int) "rewritten file is not a cache placement" before
    (cache_placements ());
  Alcotest.(check (list string)) "reply is the oracle for the new content"
    (List.map strip_volatile oracle) (List.map strip_volatile rewritten);
  Sys.remove path

(* The acceptance experiment, in miniature: a zipfian key stream over
   2 shards.  Cache-aware placement executes each distinct config once
   cluster-wide; uniform round-robin warms every shard's cache
   separately, so it must see materially fewer hits. *)
let run_zipf_stream t ~requests ~universe =
  let sample = LG.sampler ~theta:0.99 ~n:universe in
  let rng = Util.Rng.create ~seed:9 in
  let hits = ref 0 in
  for _ = 1 to requests do
    let r = Router.submit_line t (job_line (sample rng)) () in
    Alcotest.(check bool) "reply ok" true (contains r "\"status\":\"ok\"");
    if contains r "\"cached\":true" then incr hits
  done;
  !hits

let test_cache_aware_beats_uniform () =
  let requests = 80 and universe = 24 in
  let cache_hits =
    with_router ~n:2 ~placement:Router.Cache_aware ~steal_min:0 @@ fun t ->
    run_zipf_stream t ~requests ~universe
  in
  let uniform_hits =
    with_router ~n:2 ~placement:Router.Uniform ~steal_min:0 @@ fun t ->
    run_zipf_stream t ~requests ~universe
  in
  Alcotest.(check bool)
    (Printf.sprintf "cache-aware hits (%d/%d) beat uniform (%d/%d)" cache_hits
       requests uniform_hits requests)
    true
    (cache_hits > uniform_hits)

let test_failover_and_shard_down () =
  with_router ~n:2 @@ fun t ->
  (* warm both shards *)
  List.iter (fun s -> ignore (Router.submit_line t (job_line s) ())) [ 1; 2; 3 ];
  Alcotest.(check (list string)) "both alive" [ "s0"; "s1" ] (Router.alive_ids t);
  Router.mark_down t "s0";
  Alcotest.(check (list string)) "one survivor" [ "s1" ] (Router.alive_ids t);
  (* every job, including ones s0 owned, now completes on s1 *)
  List.iter
    (fun s ->
       let r = Router.submit_line t (job_line s) () in
       Alcotest.(check bool) "degraded service stays ok" true
         (contains r "\"status\":\"ok\"" && contains r "\"shard\":\"s1\""))
    [ 1; 2; 3; 4 ];
  Router.mark_down t "s1";
  let r = Router.submit_line t (job_line 9) () in
  Alcotest.(check bool) "no shard left: typed shard_down" true
    (contains r "\"status\":\"shard_down\"")

let test_work_stealing_counts () =
  (* one hot shard: all keys forced to s0 by hashing?  Simpler: uniform
     placement with stealing on and more jobs than one shard drains
     instantly — the steal counter is the observable *)
  with_router ~n:2 ~placement:Router.Cache_aware ~steal_min:1 @@ fun t ->
  let seeds = List.init 24 (fun i -> 100 + i) in
  let joins = List.map (fun s -> Router.submit_line t (job_line s)) seeds in
  List.iter (fun j -> ignore (j ())) joins;
  let stats = Router.stats_json t in
  let s0 = int_at [ "shards"; "s0"; "routed" ] stats in
  let s1 = int_at [ "shards"; "s1"; "routed" ] stats in
  Alcotest.(check int) "every job routed exactly once" 24 (s0 + s1);
  Alcotest.(check bool) "both shards participated" true (s0 > 0 && s1 > 0)

(* ---- load harness accounting (driven against a scripted backend) ---- *)

let test_loadgen_accounting () =
  let calls = Atomic.make 0 in
  let submit line () =
    ignore line;
    let n = Atomic.fetch_and_add calls 1 in
    if n mod 3 = 0 then
      "{\"status\":\"ok\",\"cached\":true,\"shard\":\"s0\"}"
    else if n mod 7 = 0 then "{\"status\":\"overloaded\",\"shard\":\"s1\"}"
    else "{\"status\":\"ok\",\"cached\":false,\"shard\":\"s1\"}"
  in
  let fired = Atomic.make 0 in
  let cfg =
    { LG.default with LG.requests = 90; clients = 3; universe = 8; seed = 5 }
  in
  let r = LG.run ~after:(10, fun () -> Atomic.incr fired) ~submit cfg in
  Alcotest.(check int) "every request issued" 90 r.LG.issued;
  Alcotest.(check int) "statuses partition the replies" 90
    (r.LG.ok + r.LG.overloaded + r.LG.shard_down + r.LG.failed);
  Alcotest.(check bool) "cache hits counted" true (r.LG.cached > 0);
  Alcotest.(check bool) "overloads counted" true (r.LG.overloaded > 0);
  Alcotest.(check int) "shard attribution covers every reply" 90
    (List.fold_left (fun a (_, n) -> a + n) 0 r.LG.by_shard);
  Alcotest.(check int) "after-hook fired exactly once" 1 (Atomic.get fired);
  Alcotest.(check bool) "throughput positive" true (r.LG.throughput > 0.0);
  Alcotest.(check bool) "quantiles ordered" true
    (r.LG.p50_ms <= r.LG.p99_ms && r.LG.p99_ms <= r.LG.p999_ms)

let test_loadgen_open_loop () =
  let submit _line () = "{\"status\":\"ok\",\"cached\":false,\"shard\":\"s0\"}" in
  let cfg =
    { LG.default with
      LG.requests = 40; clients = 2; universe = 4; seed = 2;
      mode = LG.Open 2000.0 }
  in
  let r = LG.run ~submit cfg in
  Alcotest.(check int) "open loop issues every request" 40 r.LG.issued;
  Alcotest.(check int) "all ok" 40 r.LG.ok;
  let json = Server.Json.to_string (LG.report_json r) in
  Alcotest.(check bool) "json report carries the quantiles" true
    (contains json "\"p999\"" && contains json "\"throughput\"");
  let text = LG.report_text r in
  Alcotest.(check bool) "text report carries the quantiles" true
    (contains text "p999" && contains text "req/s")

(* ---- reply headers ---- *)

(* The scanners the router and the load generator used before replies
   were read into a typed header, kept here as the oracle. *)
module Old = struct
  let reply_id line =
    let pfx = "{\"id\":" in
    let pl = String.length pfx in
    let n = String.length line in
    if n > pl && String.sub line 0 pl = pfx then begin
      let rec go i acc =
        if i < n && line.[i] >= '0' && line.[i] <= '9' then
          go (i + 1) ((acc * 10) + (Char.code line.[i] - Char.code '0'))
        else (i, acc)
      in
      let stop, v = go pl 0 in
      if stop > pl then Some (v, stop) else None
    end
    else None

  let strip_id line =
    match reply_id line with
    | Some (_, stop) when stop < String.length line && line.[stop] = ',' ->
      "{" ^ String.sub line (stop + 1) (String.length line - stop - 1)
    | _ -> line

  let present client_id line =
    match client_id with
    | None -> line
    | Some n ->
      let len = String.length line in
      if len >= 2 && line.[0] = '{' then
        if line = "{}" then "{\"id\":" ^ string_of_int n ^ "}"
        else "{\"id\":" ^ string_of_int n ^ "," ^ String.sub line 1 (len - 1)
      else line

  let shard_of reply =
    let marker = "\"shard\":\"" in
    let mn = String.length marker in
    let rec find i =
      if i + mn > String.length reply then None
      else if String.sub reply i mn = marker then
        let j = ref (i + mn) in
        while !j < String.length reply && reply.[!j] <> '"' do incr j done;
        Some (String.sub reply (i + mn) (!j - (i + mn)))
      else find (i + 1)
    in
    find 0

  (* the load generator's tallies: ok, cached, overloaded, shard_down,
     timeout, cancelled, failed, and replies per shard *)
  let tally replies =
    let c = Array.make 7 0 in
    let shards = Hashtbl.create 8 in
    List.iter
      (fun r ->
         let bump i = c.(i) <- c.(i) + 1 in
         if contains r "\"status\":\"ok\"" then begin
           bump 0;
           if contains r "\"cached\":true" then bump 1
         end
         else if contains r "\"status\":\"overloaded\"" then bump 2
         else if contains r "\"status\":\"shard_down\"" then bump 3
         else if contains r "\"status\":\"timeout\"" then bump 4
         else if contains r "\"status\":\"cancelled\"" then bump 5
         else bump 6;
         match shard_of r with
         | None -> ()
         | Some sid ->
           Hashtbl.replace shards sid
             (1 + Option.value ~default:0 (Hashtbl.find_opt shards sid)))
      replies;
    (Array.to_list c,
     List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) shards []))
end

let statuses =
  [ ("ok", `Ok); ("error", `Error); ("overloaded", `Overloaded);
    ("shard_down", `Shard_down); ("timeout", `Timeout);
    ("cancelled", `Cancelled); ("shed", `Shed) ]

(* Text that must never be read as a header field when it sits inside a
   string value. *)
let tricky =
  [ "plain"; "a \"quoted\" word"; "back\\slash\\"; "\"status\":\"ok\"";
    "\"cached\":true"; "{\"id\":9,\"status\":\"shed\"}"; "tab\tand\nnewline";
    "\\\"status\\\":\\\"ok\\\"" ]

(* Every reply shape a shard or a service emits for a job: each outcome,
   with and without a wire id and a shard field, cached or not, with
   tricky error messages and trace-file paths. *)
let service_lines () =
  let path = Lazy.force saved_synth_trace in
  let sim =
    Server.Exec.Simulate_out
      (Core.Simulator.run
         { Core.Simulator.default_config with table_size = 64; seed = 3 }
         (Trace.Preprocess.run (Trace.Io.load path)))
  in
  let stats =
    Server.Exec.stats (Server.Exec.preprocessed_of_source (Server.Job.Trace_file path))
  in
  let plain = Server.Service.create ~workers:1 ~queue_capacity:4 () in
  let shard = Server.Service.create ~shard_id:"s1" ~workers:1 ~queue_capacity:4 () in
  Fun.protect
    ~finally:(fun () ->
        Server.Service.shutdown plain;
        Server.Service.shutdown shard)
  @@ fun () ->
  let outcomes =
    [ Ok sim; Ok stats; Error Server.Service_core.Timed_out; Error Server.Service_core.Cancelled;
      Error Server.Service_core.Shed ]
    @ List.concat_map
        (fun m ->
           [ Error (Server.Service_core.Exec_failed m); Error (Server.Service_core.Source_error m) ])
        tricky
  in
  List.concat_map
    (fun p ->
       List.concat_map
         (fun wire_id ->
            let job =
              { Server.Job.source = Server.Job.Trace_file p;
                spec = Server.Job.Simulate Core.Simulator.default_config;
                timeout = None; priority = 0; deadline = None; wire_id }
            in
            List.concat_map
              (fun outcome ->
                 List.concat_map
                   (fun cached ->
                      List.map
                        (fun svc ->
                           Server.Json.to_string
                             (Server.Service.response_json svc
                                { Server.Service.job; cached; elapsed = 0.25; outcome }))
                        [ plain; shard ])
                   [ false; true ])
              outcomes)
         [ None; Some 0; Some 42; Some 123456 ])
    [ path; "/tmp/we\"ird\\path \"status\":\"ok\" \"cached\":true.smtb" ]

(* The router's own lines, taken from a live router where it can make
   them, plus the shapes it only makes under chaos. *)
let router_lines () =
  let real =
    with_router @@ fun t ->
    let own l = Router.handle_line t l in
    let lines =
      own "(not a job"
      @ own "(frobnicate 1)"
      @ own "(ping)"
      @ own "(ping (id 9))"
      @ own "(stats)"
      @ own (Printf.sprintf "(simulate (trace-file %S) (size 64) (seed 1) (deadline 0) (id 4))"
               (Lazy.force saved_synth_trace))
      @ own (job_line 2)
    in
    Router.mark_down t "s0";
    Router.mark_down t "s1";
    lines
    @ own (job_line 3)
    @ own (Printf.sprintf "(simulate (trace-file %S) (size 64) (seed 3) (id 11))"
             (Lazy.force saved_synth_trace))
  in
  real
  @ [ "{\"status\":\"cancelled\",\"error\":\"cancelled by client\",\"request\":\"(simulate (workload slang) (id 3))\"}";
      "{\"id\":3,\"status\":\"cancelled\",\"error\":\"cancelled by client\",\"request\":\"(x \\\"status\\\":\\\"ok\\\")\"}";
      "{\"id\":17,\"status\":\"overloaded\",\"job\":\"simulate slang size=1 seed=1\",\"error\":\"queue full, nothing lower-priority to shed\",\"shard\":\"s0\"}";
      "{\"status\":\"overloaded\",\"job\":\"simulate slang size=1 seed=1\",\"error\":\"queue full\"}";
      "{\"id\":5,\"status\":\"ok\",\"pong\":true,\"shard\":\"s0\"}";
      "{\"id\":5}"; "{}"; "{\"id\":"; "{\"id\":7,"; "not json"; "" ]

let test_header_matches_scanners () =
  let lines = service_lines () @ router_lines () in
  Alcotest.(check bool) "a broad table" true (List.length lines > 300);
  List.iter
    (fun line ->
       let h = Cluster.Reply.read line in
       let what = "on " ^ line in
       (match Old.reply_id line with
        | Some (id, stop) ->
          Alcotest.(check (pair int int)) ("wire id " ^ what) (id, stop) (h.id, h.id_end)
        | None -> Alcotest.(check int) ("no wire id " ^ what) (-1) h.id);
       List.iter
         (fun (name, v) ->
            Alcotest.(check bool)
              (Printf.sprintf "status %s %s" name what)
              (contains line (Printf.sprintf "\"status\":\"%s\"" name))
              (h.status = v))
         statuses;
       Alcotest.(check bool) ("cached " ^ what) (contains line "\"cached\":true") h.cached;
       Alcotest.(check (option string)) ("shard " ^ what) (Old.shard_of line)
         (Cluster.Reply.shard h line);
       List.iter
         (fun client_id ->
            Alcotest.(check string) ("for_client " ^ what)
              (Old.present client_id (Old.strip_id line))
              (Cluster.Reply.for_client ?client_id h line))
         [ None; Some 0; Some 7; Some 31337 ])
    lines

(* Where the two differ by design: a field nested below the top level.
   A service's stats reply labels a counter status="overloaded"; its own
   status is ok. *)
let test_header_reads_top_level () =
  let svc = Server.Service.create ~workers:1 ~queue_capacity:4 () in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  match Server.Service.handle_line svc "(stats)" with
  | [ line ] ->
    Alcotest.(check bool) "a nested status is present" true
      (contains line "\"status\":\"overloaded\"");
    Alcotest.(check bool) "the reply's own status is ok" true
      ((Cluster.Reply.read line).status = `Ok)
  | _ -> Alcotest.fail "one stats line expected"

(* The walk allocates nothing: reading a long reply costs the returned
   header and no more, where substring search allocated at every byte. *)
let test_header_allocation () =
  let line =
    List.find (fun l -> String.length l > 500 && contains l "\"shard\"") (service_lines ())
  in
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Cluster.Reply.read line))
  done;
  let per_read = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per read of a %d-byte reply" per_read
       (String.length line))
    true (per_read <= 8.)

(* The load generator's tallies over recorded replies equal the old
   substring scanners'. *)
let test_loadgen_tallies_match_scanners () =
  let replies =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = '{')
      (List.map (fun l -> Old.strip_id l) (service_lines () @ router_lines ()))
  in
  let table = Array.of_list replies in
  let next = ref 0 in
  let submit _line () =
    let r = table.(!next) in
    incr next;
    r
  in
  let r =
    LG.run ~submit
      { LG.default with LG.requests = Array.length table; clients = 1; seed = 3 }
  in
  let counts, shards = Old.tally replies in
  Alcotest.(check (list int)) "status tallies"
    counts
    [ r.LG.ok; r.LG.cached; r.LG.overloaded; r.LG.shard_down; r.LG.timeouts;
      r.LG.cancelled; r.LG.failed ];
  Alcotest.(check (list (pair string int))) "replies per shard" shards r.LG.by_shard

let () =
  Alcotest.run "routing"
    [ ("ring",
       [ Alcotest.test_case "owners" `Quick test_ring_owners;
         Alcotest.test_case "balance" `Quick test_ring_balance;
         Alcotest.test_case "minimal remap" `Quick test_ring_minimal_remap;
         Alcotest.test_case "validation" `Quick test_ring_validation ]);
      ("zipf",
       [ Alcotest.test_case "skew and determinism" `Quick
           test_zipf_skew_and_determinism;
         Alcotest.test_case "uniform degenerate" `Quick
           test_zipf_uniform_degenerate ]);
      ("router",
       [ Alcotest.test_case "matches direct service" `Quick
           test_router_matches_direct;
         Alcotest.test_case "stats and ping" `Quick test_router_stats_and_ping;
         Alcotest.test_case "cache-aware placement" `Quick
           test_cache_aware_placement;
         Alcotest.test_case "rewritten trace re-hashed" `Quick
           test_rewritten_trace_rehashed;
         Alcotest.test_case "cache-aware beats uniform" `Quick
           test_cache_aware_beats_uniform;
         Alcotest.test_case "failover and shard_down" `Quick
           test_failover_and_shard_down;
         Alcotest.test_case "work distribution" `Quick test_work_stealing_counts ]);
      ("reply header",
       [ Alcotest.test_case "matches the substring scanners" `Quick
           test_header_matches_scanners;
         Alcotest.test_case "reads the top level only" `Quick test_header_reads_top_level;
         Alcotest.test_case "allocates only the header" `Quick test_header_allocation ]);
      ("loadgen",
       [ Alcotest.test_case "tallies match the substring scanners" `Quick
           test_loadgen_tallies_match_scanners;
         Alcotest.test_case "accounting" `Quick test_loadgen_accounting;
         Alcotest.test_case "open loop" `Quick test_loadgen_open_loop ]) ]
