type metric_handles = {
  m_hits : Obs.Metric.Counter.t;
  m_disk_hits : Obs.Metric.Counter.t;
  m_misses : Obs.Metric.Counter.t;
  m_stores : Obs.Metric.Counter.t;
  m_disk_bytes : Obs.Metric.Counter.t;
  m_write_errors : Obs.Metric.Counter.t;
  m_degraded : Obs.Metric.Gauge.t;
}

type t = {
  log : (Store.Log.t * string) option;   (* the disk backend and its dir *)
  lock : Mutex.t;
  mem : (string, string) Hashtbl.t;
  metrics : metric_handles option;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable write_errors : int;
  mutable degraded : bool;
}

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  write_errors : int;
  degraded : bool;
}

let resolve_metrics reg =
  let c name help = Obs.Registry.counter reg ~help name in
  { m_hits = c "small_cache_hits_total" "result-cache hits (memory + disk)";
    m_disk_hits = c "small_cache_disk_hits_total" "result-cache hits loaded from disk";
    m_misses = c "small_cache_misses_total" "result-cache misses";
    m_stores = c "small_cache_stores_total" "results stored";
    m_disk_bytes = c "small_cache_disk_bytes_total" "result bytes written to disk";
    m_write_errors = c "small_cache_write_errors_total" "failed disk writes (memory kept)";
    m_degraded =
      Obs.Registry.gauge reg
        ~help:"1 once any disk write has failed: entries live only in memory \
               and the next process start will recompute them"
        "small_cache_degraded" }

let with_metrics t f = match t.metrics with None -> () | Some m -> f m

let create ?metrics ?fault ?store_dir () =
  let log =
    Option.map (fun d -> (Store.Log.open_ ?metrics ?fault ~dir:d (), d)) store_dir
  in
  { log; lock = Mutex.create (); mem = Hashtbl.create 64;
    metrics = Option.map resolve_metrics metrics;
    hits = 0; disk_hits = 0; misses = 0; stores = 0; write_errors = 0;
    degraded = false }

let key ~trace_digest ~job_digest =
  Digest.to_hex (Digest.string (trace_digest ^ "+" ^ job_digest))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* A write error degrades persistence, never correctness — but a
   degraded node looks exactly like a cold one at the next start, so
   surface it: gauge to 1 and one warning line, once. *)
let note_write_error (t : t) dir =
  t.write_errors <- t.write_errors + 1;
  with_metrics t (fun m -> Obs.Metric.Counter.incr m.m_write_errors);
  if not t.degraded then begin
    t.degraded <- true;
    with_metrics t (fun m -> Obs.Metric.Gauge.set m.m_degraded 1);
    Printf.eprintf
      "smallsim: result cache degraded: disk write to %s failed; entries are \
       memory-only and will be recomputed on restart\n%!"
      dir
  end

let hit (t : t) ~from_disk v =
  t.hits <- t.hits + 1;
  if from_disk then t.disk_hits <- t.disk_hits + 1;
  with_metrics t (fun m ->
      Obs.Metric.Counter.incr m.m_hits;
      if from_disk then Obs.Metric.Counter.incr m.m_disk_hits);
  Some v

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.mem key with
      | Some v -> hit t ~from_disk:false v
      | None ->
        match
          Option.bind t.log (fun (log, _) ->
              try Store.Log.get log key with Sys_error _ -> None)
        with
        | Some v ->
          Hashtbl.replace t.mem key v;
          hit t ~from_disk:true v
        | None ->
          t.misses <- t.misses + 1;
          with_metrics t (fun m -> Obs.Metric.Counter.incr m.m_misses);
          None)

let store t key value =
  locked t (fun () ->
      (* the memory entry is installed unconditionally; a failed disk
         write degrades persistence, never correctness *)
      Hashtbl.replace t.mem key value;
      t.stores <- t.stores + 1;
      with_metrics t (fun m -> Obs.Metric.Counter.incr m.m_stores);
      match t.log with
      | None -> ()
      | Some (log, dir) ->
        match Store.Log.set log key value with
        | () ->
          with_metrics t (fun m ->
              Obs.Metric.Counter.add m.m_disk_bytes (String.length value))
        | exception Sys_error _ -> note_write_error t dir)

let stats t =
  locked t (fun () ->
      { hits = t.hits; disk_hits = t.disk_hits; misses = t.misses;
        stores = t.stores; write_errors = t.write_errors; degraded = t.degraded })

let log_stats t = Option.map (fun (log, _) -> Store.Log.stats log) t.log
