(* The report step: from a span dump, each span name's call count, total
   and self time, how much of the request time the stage spans cover,
   and the tracing overhead against the untraced median.

   Two span trees share each request id:
   - the path tree, rooted at [request], whose children are the calls a
     client makes ([service.*] or [router.*]);
   - the stage tree, rooted at [stages], whose children are the public
     calls that make up the same request ([stage.*]). *)

type summary = { calls : int; total : float; self : float }

type t = {
  requests : int;
  by_name : (string * summary) list;   (* sorted by name *)
  request_p50_ms : float;
  request_mean_ms : float;
  coverage : float;      (* stage time over request time *)
  overhead_ratio : float;  (* traced p50 over untraced p50, minus 1 *)
  header : (string * float) list;
}

let of_spans ~header (spans : Spans.span list) =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Spans.span) ->
       if s.parent >= 0 then
         Hashtbl.replace children s.parent
           ((s.start, s.stop)
            :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let names = Hashtbl.create 32 in
  List.iter
    (fun (s : Spans.span) ->
       let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
       let self = Stats.self_time ~start:s.start ~stop:s.stop kids in
       let prev =
         Option.value ~default:{ calls = 0; total = 0.; self = 0. }
           (Hashtbl.find_opt names s.name)
       in
       Hashtbl.replace names s.name
         { calls = prev.calls + 1; total = prev.total +. (s.stop -. s.start);
           self = prev.self +. self })
    spans;
  let durations name =
    List.filter_map
      (fun (s : Spans.span) ->
         if s.name = name then Some (s.stop -. s.start) else None)
      spans
    |> Array.of_list
  in
  let req = durations "request" in
  let stage_roots =
    List.filter_map
      (fun (s : Spans.span) -> if s.name = "stages" then Some s.id else None)
      spans
  in
  let stage_time =
    List.fold_left
      (fun acc id ->
         List.fold_left (fun acc (a, b) -> acc +. (b -. a)) acc
           (Option.value ~default:[] (Hashtbl.find_opt children id)))
      0. stage_roots
  in
  let request_p50_ms = 1000. *. Stats.percentile req 0.5 in
  let untraced = Option.value ~default:0. (List.assoc_opt "untraced_p50_ms" header) in
  { requests = Array.length req;
    by_name =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) names [] |> List.sort compare;
    request_p50_ms;
    request_mean_ms = 1000. *. Stats.mean req;
    coverage = Stats.ratio stage_time (Array.fold_left ( +. ) 0. req);
    overhead_ratio =
      (if untraced > 0. then (request_p50_ms /. untraced) -. 1. else 0.);
    header }

let summary t name =
  Option.value ~default:{ calls = 0; total = 0.; self = 0. }
    (List.assoc_opt name t.by_name)

(* Milliseconds spent in [name] per measured request: stage budgets in
   these units add up to the mean request time. *)
let per_request_ms t name =
  Stats.ratio (1000. *. (summary t name).total) (float_of_int t.requests)

let header_value t key = Option.value ~default:0. (List.assoc_opt key t.header)

(* The per-layer metrics the spans give, as (name, value, unit). *)
let metrics t =
  let ms name = per_request_ms t name in
  let kernel = summary t "stage.kernel" and pre = summary t "stage.preprocess" in
  let per_call s = Stats.ratio (1000. *. s.total) (float_of_int s.calls) in
  [ ("service.parse_ms", ms "stage.parse", "ms");
    ("service.submit_ms", ms "service.submit", "ms");
    ("service.render_ms", ms "stage.render", "ms");
    ("exec.digest_ms", ms "stage.digest", "ms");
    ("exec.digest_bytes_per_req",
     Stats.ratio (header_value t "digest_bytes") (float_of_int t.requests), "B");
    ("trace.open_ms", ms "stage.open", "ms");
    ("trace.preprocess_ms", ms "stage.preprocess", "ms");
    ("trace.preprocess_per_trace",
     Stats.ratio (float_of_int pre.calls) (header_value t "distinct_traces"), "ratio");
    ("simulator.pack_ms", ms "stage.pack", "ms");
    ("simulator.kernel_ms", ms "stage.kernel", "ms");
    ("simulator.prims_per_s",
     Stats.ratio (header_value t "kernel_events") kernel.total, "1/s");
    ("result_cache.find_ms", ms "stage.find", "ms");
    ("result_cache.decode_ms", ms "stage.decode", "ms");
    ("result_cache.store_ms", ms "stage.store", "ms");
    ("router.submit_ms", ms "router.submit", "ms");
    ("tracing.request_p50_ms", t.request_p50_ms, "ms");
    ("tracing.stage_coverage", t.coverage, "ratio");
    ("tracing.overhead_ratio", t.overhead_ratio, "ratio");
    ("suspicion.preprocess_over_kernel", Stats.ratio (per_call pre) (per_call kernel),
     "ratio");
    ("suspicion.digest_share",
     Stats.ratio (ms "stage.digest") t.request_mean_ms, "ratio") ]

let print_table oc t =
  Printf.fprintf oc "spans: %d requests, traced p50 %.3f ms, mean %.3f ms\n"
    t.requests t.request_p50_ms t.request_mean_ms;
  Printf.fprintf oc "  %-18s %8s %12s %12s %12s\n" "span" "calls" "total ms"
    "self ms" "ms/request";
  List.iter
    (fun (name, s) ->
       Printf.fprintf oc "  %-18s %8d %12.3f %12.3f %12.4f\n" name s.calls
         (1000. *. s.total) (1000. *. s.self) (per_request_ms t name))
    t.by_name;
  Printf.fprintf oc "  stage coverage of request time %.3f, tracing overhead %+.1f%%\n"
    t.coverage (100. *. t.overhead_ratio)
