(* Log-structured store tests: the kill-mid-commit crash battery (a
   reopen at every byte offset of a torn final record and at every
   single-byte flip must recover a prefix-consistent state and never
   lose an acknowledged group or serve a corrupt value), seeded
   fault-plan workloads over every store.* injection site, a corrupt
   value span counted and healed with the store open, compaction/eviction
   properties with exact dead-byte accounting and a concurrent reader,
   the cache-degraded regression, and a service-level reopen. *)

module L = Store.Log
module P = Fault.Plan
module RC = Server.Result_cache

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

(* The full observable state, via the public interface only. *)
let state_of t =
  L.keys t
  |> List.filter_map (fun k -> Option.map (fun v -> (k, v)) (L.get t k))
  |> List.sort compare

let model_state m =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [] |> List.sort compare

let pp_state st =
  String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) st)

let check_state msg expected t =
  Alcotest.(check string) msg (pp_state expected) (pp_state (state_of t))

(* no rotation, no auto-compaction: the battery truncates the one
   segment the workload wrote *)
let flat_config =
  { L.segment_bytes = 1 lsl 20; compact_ratio = 1.0; max_bytes = None; ttl = None }

(* ---- basics ---- *)

let test_roundtrip () =
  let dir = temp_dir "store_rt" in
  let s = L.open_ ~dir () in
  L.set s "alpha" "one";
  L.set s "beta" "two";
  Alcotest.(check (option string)) "get" (Some "one") (L.get s "alpha");
  Alcotest.(check bool) "mem" true (L.mem s "beta");
  L.set s "alpha" "uno";
  Alcotest.(check (option string)) "overwrite" (Some "uno") (L.get s "alpha");
  L.delete s "beta";
  Alcotest.(check (option string)) "pending delete visible" None (L.get s "beta");
  L.commit s;
  Alcotest.(check int) "entries" 1 (L.entries s);
  (* binary values round-trip byte-exactly *)
  let blob = String.init 257 (fun i -> Char.chr (i mod 256)) in
  L.set s "blob" blob;
  Alcotest.(check (option string)) "binary value" (Some blob) (L.get s "blob");
  L.close s;
  let s2 = L.open_ ~dir () in
  Alcotest.(check (option string)) "survives reopen" (Some "uno") (L.get s2 "alpha");
  Alcotest.(check (option string)) "delete survives reopen" None (L.get s2 "beta");
  Alcotest.(check (option string)) "binary survives reopen" (Some blob)
    (L.get s2 "blob");
  let st = L.stats s2 in
  Alcotest.(check bool) "recovery replayed records" true (st.L.recovered_records > 0);
  Alcotest.(check int) "clean log loses nothing" 0 st.L.truncated_records;
  L.close s2;
  rm_rf dir

let test_read_your_writes () =
  let dir = temp_dir "store_ryw" in
  let s = L.open_ ~dir () in
  L.put s "k" "pending";
  Alcotest.(check (option string)) "uncommitted visible" (Some "pending")
    (L.get s "k");
  Alcotest.(check bool) "uncommitted mem" true (L.mem s "k");
  L.commit s;
  L.close s;
  rm_rf dir

(* ---- the crash battery ----

   Random workloads of grouped puts/deletes/overwrites; for each, the
   final commit's record is truncated at EVERY byte offset and the
   store reopened: the recovered state must be exactly the state before
   the final group (a mid-record crash means that commit never
   returned, so it was never acknowledged), and the untruncated log
   must replay to the state after it.  Byte flips over the whole file
   must recover SOME acknowledged prefix — never a corrupt value. *)

type wop = Wput of string * string | Wdel of string

let apply_group s model group =
  List.iter
    (function
      | Wput (k, v) -> L.put s k v
      | Wdel k -> L.delete s k)
    group;
  L.commit s;
  List.iter
    (function
      | Wput (k, v) -> Hashtbl.replace model k v
      | Wdel k -> Hashtbl.remove model k)
    group

let gen_groups rng ~groups =
  let keys = Array.init 12 (fun i -> Printf.sprintf "key%02d" i) in
  let gen_group ~final =
    let n = 1 + Random.State.int rng 4 in
    List.init n (fun i ->
        let k = keys.(Random.State.int rng (Array.length keys)) in
        (* a group always opens with a put, so the store never empties
           and the final record is never trivially small *)
        if i > 0 && Random.State.int rng 4 = 0 && not final then Wdel k
        else
          Wput (k, Printf.sprintf "v%d-%s" (Random.State.int rng 1000)
                  (String.make (8 + Random.State.int rng 24) 'x')))
  in
  List.init groups (fun i -> gen_group ~final:(i = groups - 1))

(* Rebuild [dst] as a copy of [src] with the named segment truncated to
   [cut] bytes.  [dst] is wiped first: a previous reopen may have
   repaired (truncated, deleted) the files. *)
let copy_truncated ~src ~dst ~seg_name ~cut =
  Array.iter
    (fun n -> try Sys.remove (Filename.concat dst n) with Sys_error _ -> ())
    (Sys.readdir dst);
  Array.iter
    (fun n ->
       let body = read_file (Filename.concat src n) in
       let body = if n = seg_name then String.sub body 0 cut else body in
       write_file (Filename.concat dst n) body)
    (Sys.readdir src)

let crash_points = ref 0

let test_torn_record_battery () =
  let seg_name = "seg-00000000.smsg" in
  let scratch = temp_dir "store_cut" in
  for seed = 1 to 12 do
    let rng = Random.State.make [| 0xbeef; seed |] in
    let groups = gen_groups rng ~groups:(4 + Random.State.int rng 5) in
    let dir = temp_dir "store_battery" in
    let s = L.open_ ~config:flat_config ~dir () in
    let model = Hashtbl.create 16 in
    let rec split = function
      | [ last ] -> ([], last)
      | g :: rest -> let init, last = split rest in (g :: init, last)
      | [] -> assert false
    in
    let init, final = split groups in
    List.iter (apply_group s model) init;
    let before = model_state model in
    let l0 = String.length (read_file (Filename.concat dir seg_name)) in
    apply_group s model final;
    let after = model_state model in
    L.close s;
    let l1 = String.length (read_file (Filename.concat dir seg_name)) in
    Alcotest.(check bool) "final group appended" true (l1 > l0);
    for cut = l0 to l1 - 1 do
      incr crash_points;
      copy_truncated ~src:dir ~dst:scratch ~seg_name ~cut;
      let r = L.open_ ~config:flat_config ~dir:scratch () in
      check_state
        (Printf.sprintf "seed %d cut %d/%d: exactly the acknowledged prefix"
           seed cut l1)
        before r;
      (if cut > l0 then
         let st = L.stats r in
         Alcotest.(check bool) "torn tail was truncated" true
           (st.L.truncated_records > 0));
      L.close r
    done;
    (* the untruncated log replays the final group too *)
    copy_truncated ~src:dir ~dst:scratch ~seg_name ~cut:l1;
    let r = L.open_ ~config:flat_config ~dir:scratch () in
    check_state (Printf.sprintf "seed %d: full log has the final group" seed)
      after r;
    L.close r;
    rm_rf dir
  done;
  rm_rf scratch

let test_byte_flip_battery () =
  let seg_name = "seg-00000000.smsg" in
  let scratch = temp_dir "store_flip" in
  for seed = 1 to 3 do
    let rng = Random.State.make [| 0xf11b; seed |] in
    let groups = gen_groups rng ~groups:8 in
    let dir = temp_dir "store_flipsrc" in
    let s = L.open_ ~config:flat_config ~dir () in
    let model = Hashtbl.create 16 in
    (* snapshot after every commit: a flip must land on one of these *)
    let empty_snapshot = pp_state (model_state model) in
    let snapshots =
      empty_snapshot
      :: List.map
        (fun g -> apply_group s model g; pp_state (model_state model))
        groups
    in
    L.close s;
    let body = read_file (Filename.concat dir seg_name) in
    for pos = 0 to String.length body - 1 do
      incr crash_points;
      let flipped = Bytes.of_string body in
      Bytes.set flipped pos (Char.chr (Char.code body.[pos] lxor 0x40));
      Array.iter
        (fun n -> try Sys.remove (Filename.concat scratch n) with Sys_error _ -> ())
        (Sys.readdir scratch);
      write_file (Filename.concat scratch seg_name) (Bytes.to_string flipped);
      let r = L.open_ ~config:flat_config ~dir:scratch () in
      let got = pp_state (state_of r) in
      if not (List.mem got snapshots) then
        Alcotest.failf
          "seed %d flip at %d: recovered state is not an acknowledged prefix: %s"
          seed pos got;
      L.close r
    done;
    rm_rf dir
  done;
  rm_rf scratch;
  (* the ISSUE's floor: the batteries together must generate >= 1000
     distinct crash points per run *)
  Alcotest.(check bool)
    (Printf.sprintf "crash battery generated %d points (>= 1000)" !crash_points)
    true (!crash_points >= 1000)

(* A flipped byte inside a committed value, under a store that stays
   open: the read-side hash check drops the entry (a miss, never the
   damaged bytes), counts it where an operator can see it, and a
   re-store heals it — durably once compaction rewrites the log. *)
let test_corrupt_read_counted_and_healed () =
  let dir = temp_dir "store_corrupt_read" in
  let reg = Obs.Registry.create () in
  let s = L.open_ ~metrics:reg ~config:flat_config ~dir () in
  let value = "a precious stored value" in
  L.set s "keep" "intact";
  L.set s "victim" value;
  let seg = Filename.concat dir "seg-00000000.smsg" in
  let body = Bytes.of_string (read_file seg) in
  (* the value bytes sit verbatim in the last record *)
  let pos =
    let n = String.length value in
    let rec find i =
      if i < 0 then Alcotest.fail "value not found in the segment"
      else if Bytes.sub_string body i n = value then i
      else find (i - 1)
    in
    find (Bytes.length body - n) + 3
  in
  Bytes.set body pos (Char.chr (Char.code (Bytes.get body pos) lxor 0x01));
  write_file seg (Bytes.to_string body);
  Alcotest.(check (option string)) "damaged value is a miss" None (L.get s "victim");
  Alcotest.(check (option string)) "neighbour unaffected" (Some "intact") (L.get s "keep");
  Alcotest.(check int) "stats count the corrupt read" 1 (L.stats s).L.corrupt_reads;
  Alcotest.(check int) "small_store_corrupt_reads_total" 1
    (Obs.Metric.Counter.get
       (Obs.Registry.counter reg "small_store_corrupt_reads_total"));
  Alcotest.(check (option string)) "dropped, not re-read" None (L.get s "victim");
  Alcotest.(check int) "counted once" 1 (L.stats s).L.corrupt_reads;
  L.set s "victim" value;
  Alcotest.(check (option string)) "re-store heals" (Some value) (L.get s "victim");
  L.compact s;
  L.close s;
  let r = L.open_ ~config:flat_config ~dir () in
  check_state "healed state survives reopen" [ ("keep", "intact"); ("victim", value) ] r;
  L.close r;
  rm_rf dir

(* ---- seeded fault-plan workloads: every store.* site ---- *)

let faulty_cfg seed =
  { P.default with seed; write_fail = 0.2; torn_write = 0.15; delay_s = 0.0 }

let test_fault_plan_workloads () =
  let injected = ref 0 in
  for seed = 1 to 8 do
    let rng = Random.State.make [| 0xfa17; seed |] in
    let dir = temp_dir "store_fault" in
    let config =
      { L.segment_bytes = 4096; compact_ratio = 0.3; max_bytes = None; ttl = None }
    in
    let model = Hashtbl.create 16 in
    let store = ref (L.open_ ~fault:(P.create (faulty_cfg seed)) ~config ~dir ()) in
    for i = 0 to 199 do
      let k = Printf.sprintf "k%02d" (Random.State.int rng 16) in
      (match Random.State.int rng 10 with
       | 0 ->
         (* a deletion group: acknowledged iff commit returns *)
         (try
            L.delete !store k;
            L.commit !store;
            Hashtbl.remove model k
          with Sys_error _ -> incr injected)
       | 1 -> (try L.compact !store with Sys_error _ -> incr injected)
       | _ ->
         let v = Printf.sprintf "v%d-%s" i (String.make (Random.State.int rng 64) 'y') in
         (try
            L.set !store k v;
            Hashtbl.replace model k v
          with Sys_error _ -> incr injected));
      (* a torn append wedges the store: reopen (fault-free) and the
         recovered state must be exactly the acknowledged operations *)
      if L.failed !store then begin
        L.close !store;
        store := L.open_ ~config ~dir ();
        check_state (Printf.sprintf "seed %d op %d: post-crash recovery" seed i)
          (model_state model) !store
      end
    done;
    L.close !store;
    let r = L.open_ ~config ~dir () in
    check_state (Printf.sprintf "seed %d: final recovery" seed)
      (model_state model) r;
    L.close r;
    rm_rf dir
  done;
  Alcotest.(check bool) "the plans actually injected faults" true (!injected > 0)

let test_recovery_fault_site () =
  let dir = temp_dir "store_recsite" in
  let s = L.open_ ~dir () in
  L.set s "stable" "value";
  L.close s;
  let all_fail =
    P.create { P.default with seed = 7; write_fail = 1.0; delay_s = 0.0 }
  in
  (match L.open_ ~fault:all_fail ~dir () with
   | _ -> Alcotest.fail "recovery under a read fault must raise"
   | exception Sys_error _ -> ());
  (* the failed recovery mutated nothing: a clean open has everything *)
  let r = L.open_ ~dir () in
  Alcotest.(check (option string)) "state intact after failed recovery"
    (Some "value") (L.get r "stable");
  L.close r;
  rm_rf dir

(* ---- compaction and eviction properties ---- *)

type cop = Cset of int * int | Cdel of int | Ccompact

let cop_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun k n -> Cset (k, n)) (int_bound 9) (int_bound 80));
        (2, map (fun k -> Cdel k) (int_bound 9));
        (1, return Ccompact) ])

let pp_cop = function
  | Cset (k, n) -> Printf.sprintf "set %d (%d bytes)" k n
  | Cdel k -> Printf.sprintf "del %d" k
  | Ccompact -> "compact"

let prop_compaction_accounting =
  QCheck.Test.make ~name:"live set = model; dead-byte accounting is exact"
    ~count:60
    (QCheck.make ~print:QCheck.Print.(list pp_cop) QCheck.Gen.(list_size (1 -- 60) cop_gen))
    (fun ops ->
       let dir = temp_dir "compact_acct" in
       Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
       let config =
         (* auto-compaction off (ratio 1 + a live floor): only explicit
            Ccompact compacts, so the expected dead count is exact *)
         { L.segment_bytes = 1 lsl 20; compact_ratio = 1.0;
           max_bytes = None; ttl = None }
       in
       let s = L.open_ ~config ~dir () in
       let model = Hashtbl.create 8 in
       let live = ref 0 and dead = ref 0 in
       let key k = Printf.sprintf "ck%d" k in
       let value k n = Printf.sprintf "%d:%s" k (String.make n 'z') in
       List.iter
         (fun op ->
            (match op with
             | Cset (k, n) ->
               let key = key k and v = value k n in
               let bytes = L.encoded_put_bytes ~key ~value:v in
               (match Hashtbl.find_opt model key with
                | Some old ->
                  let ob = L.encoded_put_bytes ~key ~value:old in
                  dead := !dead + ob;
                  live := !live - ob
                | None -> ());
               Hashtbl.replace model key v;
               live := !live + bytes;
               L.set s key v
             | Cdel k ->
               let key = key k in
               (match Hashtbl.find_opt model key with
                | Some old ->
                  let ob = L.encoded_put_bytes ~key ~value:old in
                  dead := !dead + ob;
                  live := !live - ob
                | None -> ());
               dead := !dead + L.encoded_delete_bytes ~key;
               Hashtbl.remove model key;
               L.delete s key;
               L.commit s
             | Ccompact ->
               L.compact s;
               dead := 0);
            let st = L.stats s in
            if st.L.live_bytes <> !live then
              QCheck.Test.fail_reportf "after %s: live %d, expected %d"
                (pp_cop op) st.L.live_bytes !live;
            if st.L.dead_bytes <> !dead then
              QCheck.Test.fail_reportf "after %s: dead %d, expected %d"
                (pp_cop op) st.L.dead_bytes !dead;
            if st.L.entries <> Hashtbl.length model then
              QCheck.Test.fail_reportf "after %s: %d entries, expected %d"
                (pp_cop op) st.L.entries (Hashtbl.length model))
         ops;
       let final = model_state model in
       let ok1 = state_of s = final in
       L.close s;
       (* recovery replays to the same state AND the same accounting *)
       let r = L.open_ ~config ~dir () in
       let st = L.stats r in
       let ok2 =
         state_of r = final && st.L.live_bytes = !live && st.L.dead_bytes = !dead
       in
       L.close r;
       ok1 && ok2)

let test_concurrent_reader_during_compaction () =
  let dir = temp_dir "compact_reader" in
  let config =
    { L.segment_bytes = 1 lsl 20; compact_ratio = 1.0; max_bytes = None; ttl = None }
  in
  let s = L.open_ ~config ~dir () in
  let stable = List.init 32 (fun i -> (Printf.sprintf "stable%02d" i, Printf.sprintf "sv%d" i)) in
  List.iter (fun (k, v) -> L.set s k v) stable;
  let bad = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          List.iter
            (fun (k, v) ->
               incr n;
               match L.get s k with
               | Some got when got = v -> ()
               | _ -> Atomic.incr bad)
            stable
        done;
        !n)
  in
  (* churn + repeated compaction while the reader hammers stable keys *)
  for round = 0 to 19 do
    for i = 0 to 15 do
      L.set s (Printf.sprintf "churn%02d" i) (Printf.sprintf "r%d-%d" round i)
    done;
    L.compact s
  done;
  Atomic.set stop true;
  let reads = Domain.join reader in
  Alcotest.(check int) "no missing or partial reads during compaction" 0
    (Atomic.get bad);
  Alcotest.(check bool) "the reader actually read" true (reads > 0);
  Alcotest.(check bool) "compactions ran" true ((L.stats s).L.compactions >= 20);
  L.close s;
  rm_rf dir

let test_size_eviction () =
  let dir = temp_dir "evict" in
  let key i = Printf.sprintf "e%02d" i in
  let value i = Printf.sprintf "%d:%s" i (String.make (10 + (i mod 5) * 7) 'w') in
  let bytes i = L.encoded_put_bytes ~key:(key i) ~value:(value i) in
  let cap = bytes 7 + bytes 8 + bytes 9 + 4 in
  let config =
    { L.segment_bytes = 1 lsl 20; compact_ratio = 1.0;
      max_bytes = Some cap; ttl = None }
  in
  let s = L.open_ ~config ~dir () in
  (* the same incremental rule the store applies: after each insert,
     drop oldest until under the cap *)
  let expected = Queue.create () in
  let total = ref 0 in
  for i = 0 to 9 do
    L.set s (key i) (value i);
    Queue.push i expected;
    total := !total + bytes i;
    while !total > cap do
      let victim = Queue.pop expected in
      total := !total - bytes victim
    done
  done;
  let survivors = List.of_seq (Queue.to_seq expected) in
  let expect_state =
    List.sort compare (List.map (fun i -> (key i, value i)) survivors)
  in
  check_state "oldest entries evicted, newest kept" expect_state s;
  Alcotest.(check bool) "live bytes bounded" true ((L.stats s).L.live_bytes <= cap);
  Alcotest.(check bool) "evictions counted" true ((L.stats s).L.evictions > 0);
  L.close s;
  (* durable deletes: an evicted entry stays evicted across recovery *)
  let r = L.open_ ~config ~dir () in
  check_state "no resurrection after reopen" expect_state r;
  L.close r;
  rm_rf dir

let test_ttl_expiry () =
  let dir = temp_dir "ttl" in
  let now = ref 1000.0 in
  let config =
    { L.segment_bytes = 1 lsl 20; compact_ratio = 1.0;
      max_bytes = None; ttl = Some 10.0 }
  in
  let clock () = !now in
  let s = L.open_ ~config ~clock ~dir () in
  L.set s "old" "stale";
  now := 1005.0;
  Alcotest.(check (option string)) "fresh enough" (Some "stale") (L.get s "old");
  now := 1015.0;
  L.set s "new" "current";
  Alcotest.(check (option string)) "expired on read" None (L.get s "old");
  Alcotest.(check bool) "expiry counted as eviction" true ((L.stats s).L.evictions > 0);
  L.close s;
  (* recovery skips expired entries instead of indexing them *)
  let r = L.open_ ~config ~clock ~dir () in
  Alcotest.(check (option string)) "not resurrected by recovery" None (L.get r "old");
  Alcotest.(check (option string)) "live entry recovered" (Some "current")
    (L.get r "new");
  Alcotest.(check int) "only the live entry is indexed" 1 (L.entries r);
  L.close r;
  rm_rf dir

(* ---- the degraded-cache regression (satellite fix) ---- *)

let always_fail =
  P.create { P.default with seed = 3; write_fail = 1.0; delay_s = 0.0 }

let check_degraded ~make_cache name =
  let reg = Obs.Registry.create () in
  let c = make_cache reg in
  let k = RC.key ~trace_digest:"t" ~job_digest:"degraded" in
  Alcotest.(check bool) (name ^ ": fresh cache not degraded") false
    (RC.stats c).RC.degraded;
  Alcotest.(check int) (name ^ ": gauge starts 0") 0
    (Obs.Metric.Gauge.get (Obs.Registry.gauge reg "small_cache_degraded"));
  RC.store c k "value";
  (* memory still serves; the degradation is visible, not silent *)
  Alcotest.(check (option string)) (name ^ ": memory entry kept") (Some "value")
    (RC.find c k);
  Alcotest.(check bool) (name ^ ": stats flag degraded") true (RC.stats c).RC.degraded;
  Alcotest.(check bool) (name ^ ": write errors counted") true
    ((RC.stats c).RC.write_errors > 0);
  Alcotest.(check int) (name ^ ": small_cache_degraded raised") 1
    (Obs.Metric.Gauge.get (Obs.Registry.gauge reg "small_cache_degraded"))

let test_degraded_gauge_log () =
  let dir = temp_dir "degraded_log" in
  (* the plan would also fail recovery reads, but an empty directory
     never draws at store.recover — only the appends fail *)
  check_degraded "log"
    ~make_cache:(fun reg -> RC.create ~metrics:reg ~store_dir:dir ~fault:always_fail ());
  rm_rf dir

(* ---- service-level reopen over the log store ---- *)

let synth_capture = lazy (Trace.Synth.generate { Trace.Synth.default with length = 2000 })

let saved_trace = lazy (
  let path = Filename.temp_file "storesynth" ".smtb" in
  Trace.Io.save ~format:Trace.Io.Binary path (Lazy.force synth_capture);
  path)

let sim_job seed =
  { Server.Job.source = Server.Job.Trace_file (Lazy.force saved_trace);
    spec = Server.Job.Simulate { Core.Simulator.default_config with table_size = 64; seed };
    timeout = None; priority = 0; deadline = None; wire_id = None }

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "unexpected submit error"

let test_service_over_log_store () =
  let dir = temp_dir "svc_store" in
  let run f =
    let svc =
      Server.Service.create ~store_dir:dir ~workers:2 ~queue_capacity:16 ()
    in
    Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) (fun () -> f svc)
  in
  let first =
    run @@ fun svc ->
    let r = ok (Server.Service.run_job svc (sim_job 5)) in
    Alcotest.(check bool) "cold run executes" false r.Server.Service.cached;
    r
  in
  ignore first;
  (* a new process over the same store directory: recovery replays the
     stored result and the re-serve is a warm disk hit, no recompute *)
  run @@ fun svc ->
  (match RC.log_stats (Server.Service.cache svc) with
   | Some ls ->
     Alcotest.(check bool) "recovery replayed the stored result" true
       (ls.L.recovered_records > 0)
   | None -> Alcotest.fail "expected a log-backed cache");
  let r = ok (Server.Service.run_job svc (sim_job 5)) in
  Alcotest.(check bool) "warm re-serve hits the recovered entry" true
    r.Server.Service.cached;
  Alcotest.(check int) "counted as a disk hit" 1
    (RC.stats (Server.Service.cache svc)).RC.disk_hits;
  (match Server.Service.stats_json svc with
   | Server.Json.Obj fields ->
     (match List.assoc_opt "store" fields with
      | Some (Server.Json.Obj store) ->
        Alcotest.(check bool) "(stats).store reports corrupt reads" true
          (List.assoc_opt "corrupt_reads" store = Some (Server.Json.Int 0))
      | _ -> Alcotest.fail "(stats) must carry the store object")
   | _ -> Alcotest.fail "(stats) must be an object");
  rm_rf dir

let () =
  Alcotest.run "store"
    [ ("basics",
       [ Alcotest.test_case "roundtrip and reopen" `Quick test_roundtrip;
         Alcotest.test_case "read-your-writes" `Quick test_read_your_writes ]);
      ("crash battery",
       [ Alcotest.test_case "torn final record, every offset" `Quick
           test_torn_record_battery;
         Alcotest.test_case "single-byte flips, every position" `Quick
           test_byte_flip_battery;
         Alcotest.test_case "seeded fault-plan workloads" `Quick
           test_fault_plan_workloads;
         Alcotest.test_case "recovery fault site mutates nothing" `Quick
           test_recovery_fault_site;
         Alcotest.test_case "corrupt read counted and healed" `Quick
           test_corrupt_read_counted_and_healed ]);
      ("compaction",
       [ QCheck_alcotest.to_alcotest prop_compaction_accounting;
         Alcotest.test_case "concurrent reader during compaction" `Quick
           test_concurrent_reader_during_compaction ]);
      ("eviction",
       [ Alcotest.test_case "size eviction is durable" `Quick test_size_eviction;
         Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry ]);
      ("degraded cache",
       [ Alcotest.test_case "log backend raises the gauge" `Quick
           test_degraded_gauge_log ]);
      ("service",
       [ Alcotest.test_case "reopen serves recovered entries" `Quick
           test_service_over_log_store ]) ]
