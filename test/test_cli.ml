(* End-to-end CLI error discipline: every failure — bad arguments, a
   missing or corrupt trace, an unreadable fault plan — exits 2 with a
   short diagnostic on stderr, never a backtrace.  Runs the real
   executable (a dune rule dependency) via the shell. *)

let exe = "../bin/smallsim.exe"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* [run args] -> (exit code, stderr lines); stdout is discarded. *)
let run args =
  let err = Filename.temp_file "clierr" ".txt" in
  let code = Sys.command (Printf.sprintf "%s %s >/dev/null 2>%s" exe args err) in
  let ic = open_in err in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove err;
  (code, List.rev !lines)

let check_failure ?expect name args =
  let code, lines = run args in
  Alcotest.(check int) (name ^ ": exit code") 2 code;
  Alcotest.(check bool) (name ^ ": stderr not empty") true (lines <> []);
  (* a backtrace would add "Raised at ..." lines *)
  List.iter
    (fun l ->
       Alcotest.(check bool) (name ^ ": no backtrace") false
         (contains l "Raised at" || contains l "Called from"))
    lines;
  match expect with
  | None -> ()
  | Some needle ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr mentions %S" name needle)
      true
      (List.exists (fun l -> contains l needle) lines)

let one_line name args expect =
  let code, lines = run args in
  Alcotest.(check int) (name ^ ": exit code") 2 code;
  Alcotest.(check int) (name ^ ": exactly one stderr line") 1 (List.length lines);
  Alcotest.(check bool)
    (Printf.sprintf "%s: line mentions %S" name expect)
    true
    (contains (List.hd lines) expect)

let test_missing_source () =
  one_line "analyze without a source" "analyze" "need --workload or --trace"

let test_missing_trace_file () =
  check_failure "nonexistent trace file" "analyze -t /nonexistent/trace.smtb"

let test_corrupt_trace () =
  let path = Filename.temp_file "clibad" ".trace" in
  let oc = open_out_bin path in
  output_string oc "((((((((( this is not a trace";
  close_out oc;
  one_line "corrupt trace" (Printf.sprintf "analyze -t %s" (Filename.quote path))
    "Corrupt";
  Sys.remove path

let test_truncated_binary_trace () =
  let capture = Trace.Synth.generate { Trace.Synth.default with length = 200 } in
  let path = Filename.temp_file "clitrunc" ".smtb" in
  Trace.Io.save ~format:Trace.Io.Binary path capture;
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  one_line "truncated binary trace"
    (Printf.sprintf "simulate -t %s" (Filename.quote path))
    "Corrupt";
  (* a revision-1 stream is refused by the binary reader, not misread
     as sexp lines *)
  let oc = open_out_bin path in
  output_string oc "SMTB\x01\n\x01\x03\x02\x00\x00\x00";
  close_out oc;
  one_line "v1 binary trace"
    (Printf.sprintf "trace --trace %s" (Filename.quote path))
    "unsupported binary trace version";
  Sys.remove path

let test_missing_fault_plan () =
  one_line "missing fault plan" "serve --stdio --fault-plan /nonexistent/plan.sexp"
    "bad fault plan"

let test_malformed_fault_plan () =
  let path = Filename.temp_file "cliplan" ".sexp" in
  let oc = open_out path in
  output_string oc "(fault-plan (seed banana))";
  close_out oc;
  one_line "malformed fault plan"
    (Printf.sprintf "serve --stdio --fault-plan %s" (Filename.quote path))
    "bad fault plan";
  Sys.remove path

let test_invalid_fault_rate () =
  let path = Filename.temp_file "cliplan" ".sexp" in
  let oc = open_out path in
  output_string oc "(fault-plan (seed 1) (write-fail 2.5))";
  close_out oc;
  one_line "out-of-range fault rate"
    (Printf.sprintf "serve --stdio --fault-plan %s" (Filename.quote path))
    "bad fault plan";
  Sys.remove path

let test_bad_retries () =
  one_line "negative retries" "serve --stdio --retries=-1"
    "--retries must be non-negative"

let test_unknown_option () =
  check_failure "unknown option" "simulate --frobnicate"

let test_unknown_command () =
  check_failure "unknown command" "transmogrify"

let test_success_paths () =
  let code, _ = run "workloads" in
  Alcotest.(check int) "workloads exits 0" 0 code;
  let code, _ = run "--version" in
  Alcotest.(check int) "--version exits 0" 0 code

(* Regression for the header-only stats path: `trace --stats` over a
   multi-MB binary trace must succeed quickly through the real CLI —
   the event count comes from chunk headers and preprocessing runs off
   the flat batches, with no event materialisation. *)
let test_trace_stats_large_binary () =
  let capture = Trace.Synth.generate { Trace.Synth.default with length = 300_000 } in
  let path = Filename.temp_file "clibig" ".smtb" in
  Trace.Io.save ~format:Trace.Io.Binary path capture;
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  close_in ic;
  Alcotest.(check bool) "trace is multi-MB" true (size > 2_000_000);
  let code, lines =
    run (Printf.sprintf "trace --stats -t %s" (Filename.quote path))
  in
  Sys.remove path;
  Alcotest.(check int) "trace --stats exits 0" 0 code;
  Alcotest.(check (list string)) "no stderr noise" [] lines

(* [run_out args] -> (exit code, stdout lines); stderr is discarded. *)
let run_out args =
  let out = Filename.temp_file "cliout" ".txt" in
  let code = Sys.command (Printf.sprintf "%s %s >%s 2>/dev/null" exe args out) in
  let ic = open_in out in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove out;
  (code, List.rev !lines)

let temp_sock () =
  let p = Filename.temp_file "clisock" ".sock" in
  Sys.remove p;
  p

(* ---- cluster CLI surface ---- *)

let test_submit_fails_fast_without_retries () =
  let sock = temp_sock () in
  let t0 = Unix.gettimeofday () in
  one_line "refused connection, no retries"
    (Printf.sprintf "submit --socket %s --connect-retries 0 '(ping)'"
       (Filename.quote sock))
    "cannot connect";
  Alcotest.(check bool) "no backoff delay was paid" true
    (Unix.gettimeofday () -. t0 < 1.0)

let test_submit_backoff_reaches_late_server () =
  let sock = temp_sock () in
  (* the server comes up ~300ms AFTER submit starts: only the
     exponential backoff bridges the gap *)
  let server =
    Printf.sprintf
      "(sleep 0.3; exec %s serve --socket %s --workers 1 --queue 4) >/dev/null 2>&1 &"
      exe (Filename.quote sock)
  in
  Alcotest.(check int) "server launcher ok" 0 (Sys.command server);
  let code, lines = run_out (Printf.sprintf "submit --socket %s '(ping)'" (Filename.quote sock)) in
  Alcotest.(check int) "submit succeeds despite the late bind" 0 code;
  Alcotest.(check bool) "pong came back" true
    (List.exists (fun l -> contains l "\"pong\":true") lines);
  let code, _ = run_out (Printf.sprintf "submit --socket %s '(quit)'" (Filename.quote sock)) in
  Alcotest.(check int) "quit delivered" 0 code;
  (* the server unlinks its socket on the way out *)
  let gone = ref false in
  (try
     for _ = 1 to 100 do
       if not (Sys.file_exists sock) then begin gone := true; raise Exit end;
       Unix.sleepf 0.02
     done
   with Exit -> ());
  Alcotest.(check bool) "socket cleaned up" true !gone

let test_serve_refuses_regular_file_socket () =
  let path = Filename.temp_file "clinotsock" ".txt" in
  (* the serve banner precedes the failure on stderr, so don't count lines *)
  check_failure ~expect:"not a socket" "regular file where the socket goes"
    (Printf.sprintf "serve --socket %s --workers 1" (Filename.quote path));
  Alcotest.(check bool) "file untouched" true (Sys.file_exists path);
  Sys.remove path

let test_serve_replaces_stale_socket () =
  let sock = temp_sock () in
  (* leave a stale socket file behind, as a SIGKILLed server would *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;
  let server =
    Printf.sprintf "exec %s serve --socket %s --workers 1 --queue 4 >/dev/null 2>&1 &"
      exe (Filename.quote sock)
  in
  Alcotest.(check int) "server launcher ok" 0 (Sys.command server);
  let code, lines =
    run_out (Printf.sprintf "submit --socket %s '(ping)'" (Filename.quote sock))
  in
  Alcotest.(check int) "server bound over the stale socket" 0 code;
  Alcotest.(check bool) "and answers" true
    (List.exists (fun l -> contains l "\"pong\":true") lines);
  ignore (run_out (Printf.sprintf "submit --socket %s '(quit)'" (Filename.quote sock)))

let test_route_cluster_end_to_end () =
  let sock = temp_sock () in
  let router =
    Printf.sprintf
      "exec %s route --socket %s --shards 2 --shard-workers 1 >/dev/null 2>&1 &"
      exe (Filename.quote sock)
  in
  Alcotest.(check int) "router launcher ok" 0 (Sys.command router);
  let code, lines =
    run_out
      (Printf.sprintf
         "submit --socket %s '(simulate (workload plagen) (size 48) (seed 1))'"
         (Filename.quote sock))
  in
  Alcotest.(check int) "routed job ok" 0 code;
  Alcotest.(check bool) "reply names its shard" true
    (List.exists
       (fun l -> contains l "\"status\":\"ok\"" && contains l "\"shard\":\"s")
       lines);
  (* the same job again: a cache hit on the owning shard *)
  let _, lines2 =
    run_out
      (Printf.sprintf
         "submit --socket %s '(simulate (workload plagen) (size 48) (seed 1))'"
         (Filename.quote sock))
  in
  Alcotest.(check bool) "repeat served from the shard cache" true
    (List.exists (fun l -> contains l "\"cached\":true") lines2);
  ignore (run_out (Printf.sprintf "submit --socket %s '(quit)'" (Filename.quote sock)))

let test_loadgen_bad_args () =
  one_line "loadgen rejects unknown workload" "loadgen --workload nosuch --requests 4"
    "unknown workload";
  one_line "loadgen rejects zero requests" "loadgen --requests 0"
    "--requests must be at least 1"

let () =
  Alcotest.run "cli"
    [ ("errors",
       [ Alcotest.test_case "missing source" `Quick test_missing_source;
         Alcotest.test_case "missing trace file" `Quick test_missing_trace_file;
         Alcotest.test_case "corrupt trace" `Quick test_corrupt_trace;
         Alcotest.test_case "truncated binary trace" `Quick test_truncated_binary_trace;
         Alcotest.test_case "missing fault plan" `Quick test_missing_fault_plan;
         Alcotest.test_case "malformed fault plan" `Quick test_malformed_fault_plan;
         Alcotest.test_case "out-of-range fault rate" `Quick test_invalid_fault_rate;
         Alcotest.test_case "negative retries" `Quick test_bad_retries;
         Alcotest.test_case "unknown option" `Quick test_unknown_option;
         Alcotest.test_case "unknown command" `Quick test_unknown_command;
         Alcotest.test_case "success paths" `Quick test_success_paths;
         Alcotest.test_case "trace --stats on a large binary trace" `Quick
           test_trace_stats_large_binary ]);
      ("cluster",
       [ Alcotest.test_case "submit fails fast without retries" `Quick
           test_submit_fails_fast_without_retries;
         Alcotest.test_case "submit backoff reaches a late server" `Quick
           test_submit_backoff_reaches_late_server;
         Alcotest.test_case "serve refuses a regular file" `Quick
           test_serve_refuses_regular_file_socket;
         Alcotest.test_case "serve replaces a stale socket" `Quick
           test_serve_replaces_stale_socket;
         Alcotest.test_case "route end to end" `Quick test_route_cluster_end_to_end;
         Alcotest.test_case "loadgen argument validation" `Quick
           test_loadgen_bad_args ]) ]
