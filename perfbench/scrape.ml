(* Reads the metric registries the program already exports and maps the
   [small_sched_*], [small_cache_*], [small_store_*] and [small_router_*]
   families onto per-layer numbers.  Counters and histograms are taken as
   differences between two snapshots, so set-up and warm-up work done
   before the measured window does not count. *)

type snap = Obs.Registry.sample list

let snapshot regs : snap = List.concat_map Obs.Registry.snapshot regs

let matching ?label snap name =
  List.filter
    (fun (s : Obs.Registry.sample) ->
       s.name = name
       && match label with None -> true | Some l -> List.mem l s.labels)
    snap

(* Sum of a counter or gauge family over every label set. *)
let total ?label snap name =
  List.fold_left
    (fun acc (s : Obs.Registry.sample) ->
       match s.value with
       | Obs.Registry.Counter_v n | Obs.Registry.Gauge_v n -> acc + n
       | Obs.Registry.Histogram_v _ -> acc)
    0 (matching ?label snap name)

(* (observations, sum of values) of a histogram family. *)
let hist snap name =
  List.fold_left
    (fun (n, sum) (s : Obs.Registry.sample) ->
       match s.value with
       | Obs.Registry.Histogram_v h ->
         (n + Obs.Metric.Histogram.count h, sum +. h.Obs.Metric.Histogram.ssum)
       | Obs.Registry.Counter_v _ | Obs.Registry.Gauge_v _ -> (n, sum))
    (0, 0.) (matching snap name)

let delta ?label ~before ~after name =
  float_of_int (total ?label after name - total ?label before name)

(* Mean milliseconds per observation recorded between the snapshots. *)
let hist_mean_ms ~before ~after name =
  let n0, s0 = hist before name and n1, s1 = hist after name in
  Stats.ratio (1000. *. (s1 -. s0)) (float_of_int (n1 - n0))

type window = {
  mean_latency_ms : float;
  executed_distinct : int;   (* distinct keys answered by an execution *)
}

(* The per-layer metrics the registries give, as (name, value, unit).
   [router] is the router's registry when the workload is routed. *)
let metrics ~before ~after ?router (w : window) =
  let d = delta ~before ~after in
  let hits = d "small_cache_hits_total" and misses = d "small_cache_misses_total" in
  let done_jobs = d ~label:("outcome", "done") "small_sched_jobs_total" in
  let router_metrics =
    match router with
    | None ->
      (* no router: these read 0 on the single-service workloads *)
      [ ("router.shard_rtt_ms", 0., "ms"); ("router.self_ms", 0., "ms");
        ("router.cache_placement_ratio", 0., "ratio"); ("router.hit_ratio", 0., "ratio");
        ("router.steals", 0., "count") ]
    | Some (rb, ra) ->
      let rd = delta ~before:rb ~after:ra in
      let rtt = hist_mean_ms ~before:rb ~after:ra "small_router_shard_seconds" in
      [ ("router.shard_rtt_ms", rtt, "ms");
        ("router.self_ms", w.mean_latency_ms -. rtt, "ms");
        ("router.cache_placement_ratio",
         Stats.ratio
           (rd ~label:("kind", "cache") "small_router_placement_total")
           (rd "small_router_placement_total"),
         "ratio");
        ("router.hit_ratio",
         Stats.ratio (rd "small_router_hits_total") (rd "small_router_requests_total"),
         "ratio");
        ("router.steals", rd "small_router_steals_total", "count") ]
  in
  [ ("scheduler.queue_wait_ms",
     hist_mean_ms ~before ~after "small_sched_queue_wait_seconds", "ms");
    ("scheduler.run_ms", hist_mean_ms ~before ~after "small_sched_run_seconds", "ms");
    ("scheduler.jobs_done", done_jobs, "count");
    ("result_cache.hit_ratio", Stats.ratio hits (hits +. misses), "ratio");
    ("result_cache.duplicate_runs", done_jobs -. float_of_int w.executed_distinct, "count");
    ("store.appends", d "small_store_appends_total", "count");
    ("store.live_bytes", float_of_int (total after "small_store_live_bytes"), "B") ]
  @ router_metrics
