(* The allocation-free simulation kernel against its boxed reference:
   the unboxed splitmix64 against the original int64 stream, the
   weighted draw, the fingerprint memo's second-chance eviction, a
   qcheck battery proving [run]/[run_packed] byte-identical to the boxed
   reference kernel ([Oracle.Reference]) across random configs, over
   forms from both producers, and the flat kernel's steady-state
   allocation ceiling. *)

(* ---- Rng: the untagged-halves rewrite must emit the original int64
   splitmix64 stream bit for bit.  The reference below is the previous
   implementation, kept verbatim. *)

module Int64_rng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
end

let test_rng_streams_exact () =
  List.iter
    (fun seed ->
       let r = Util.Rng.create ~seed in
       let r' = Int64_rng.create ~seed in
       for i = 0 to 4_999 do
         (* interleave the draw kinds so state stays in lockstep *)
         match i mod 4 with
         | 0 ->
           let bound = 1 + (i mod 1000) in
           Alcotest.(check int)
             (Printf.sprintf "int seed=%d i=%d" seed i)
             (Int64_rng.int r' bound) (Util.Rng.int r bound)
         | 1 ->
           Alcotest.(check (float 0.))
             (Printf.sprintf "float seed=%d i=%d" seed i)
             (Int64_rng.float r') (Util.Rng.float r)
         | 2 ->
           (* unit_53 is float's numerator: 53 high bits of the output *)
           Alcotest.(check int)
             (Printf.sprintf "unit_53 seed=%d i=%d" seed i)
             (Int64.to_int (Int64.shift_right_logical (Int64_rng.next r') 11))
             (Util.Rng.unit_53 r)
         | _ ->
           (* huge bounds exercise the int64 fallback of [int] *)
           let bound = max_int - (i mod 7) in
           Alcotest.(check int)
             (Printf.sprintf "big-bound seed=%d i=%d" seed i)
             (Int64_rng.int r' bound) (Util.Rng.int r bound)
       done)
    [ 0; 1; 42; -1; 123456789; max_int; min_int ]

let test_rng_split_exact () =
  let r = Util.Rng.create ~seed:99 in
  let r' = Int64_rng.create ~seed:99 in
  let s = Util.Rng.split r in
  let s' = Int64_rng.{ state = Int64_rng.next r' } in
  for i = 0 to 499 do
    Alcotest.(check int)
      (Printf.sprintf "split stream i=%d" i)
      (Int64_rng.int s' 1_000_003) (Util.Rng.int s 1_000_003);
    Alcotest.(check int)
      (Printf.sprintf "parent stream i=%d" i)
      (Int64_rng.int r' 1_000_003) (Util.Rng.int r 1_000_003)
  done

(* ---- Rng.weighted: one draw, correct bucket, no Exit plumbing ---- *)

let test_weighted_buckets () =
  let r = Util.Rng.create ~seed:7 in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Util.Rng.weighted r [| 1.0; 0.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight bucket never drawn" 0 counts.(1);
  Alcotest.(check bool) "light bucket drawn" true (counts.(0) > 1_500);
  Alcotest.(check bool) "heavy bucket dominates" true (counts.(2) > counts.(0));
  Alcotest.(check int) "all draws land" 10_000 (counts.(0) + counts.(1) + counts.(2))

let test_weighted_single_draw_and_edges () =
  (* weighted consumes exactly one draw: the next value of a twin
     generator must follow in lockstep *)
  let r = Util.Rng.create ~seed:11 in
  let twin = Util.Rng.create ~seed:11 in
  ignore (Util.Rng.float twin);
  ignore (Util.Rng.weighted r [| 0.2; 0.8 |]);
  Alcotest.(check int) "exactly one draw consumed"
    (Util.Rng.int twin 1_000_000) (Util.Rng.int r 1_000_000);
  (* a single bucket always wins, whatever the draw *)
  let r = Util.Rng.create ~seed:13 in
  for _ = 1 to 100 do
    Alcotest.(check int) "single bucket" 0 (Util.Rng.weighted r [| 42.0 |])
  done;
  Alcotest.check_raises "all-zero weights rejected"
    (Invalid_argument "Rng.weighted: weights sum to zero") (fun () ->
      ignore (Util.Rng.weighted (Util.Rng.create ~seed:1) [| 0.0; 0.0 |]))

(* ---- fingerprint memo: hot keys survive the cap ---- *)

let test_fingerprint_memo_hot_keys_survive () =
  let base = Core.Simulator.default_config in
  (* distinct hot configs, fingerprinted once to enter the memo *)
  let hot =
    List.init 8 (fun i -> { base with seed = 900_000 + i; table_size = 64 + i })
  in
  List.iter (fun c -> ignore (Core.Simulator.config_fingerprint c)) hot;
  (* churn far past the cap, re-touching the hot set as a sweep would *)
  for i = 1 to 3 * 4096 do
    ignore (Core.Simulator.config_digest { base with seed = i; table_size = 1024 });
    if i mod 256 = 0 then
      List.iter (fun c -> ignore (Core.Simulator.config_fingerprint c)) hot
  done;
  List.iter
    (fun c ->
       Alcotest.(check bool) "hot config still memoized" true
         (Core.Simulator.fingerprint_memoized c))
    hot;
  (* and the memo still returns the physically-identical pair *)
  let c = List.hd hot in
  Alcotest.(check bool) "memoized result shared" true
    (Core.Simulator.config_fingerprint c == Core.Simulator.config_fingerprint c)

(* ---- flat kernel == boxed reference, byte for byte ---- *)

(* A binary trace file's flat form, scanned off a source that owns its
   bytes. *)
let scan_file path =
  match Trace.Io.open_path path with
  | Trace.Io.Binary_source src -> Trace.Preprocess.run_source src
  | Trace.Io.Sexp_capture _ -> Alcotest.fail "binary trace expected"

let synth_pre ?(length = 2_500) ~seed () =
  Trace.Preprocess.run (Trace.Synth.generate { Trace.Synth.default with length; seed })

let check_stats_equal what (a : Core.Simulator.stats) (b : Core.Simulator.stats) =
  if compare a b <> 0 then
    Alcotest.failf "%s: flat kernel stats differ from the reference" what

let gen_config =
  QCheck.Gen.(
    let* table_size = int_range 48 4096 in
    let* policy = oneofl [ Core.Lpt.Compress_one; Core.Lpt.Compress_all ] in
    let* split_counts = bool in
    let* eager_decrement = bool in
    let* cache =
      oneof
        [ return None;
          (let* lines = int_range 1 64 in
           let* line_size = int_range 1 8 in
           return
             (Some
                { Core.Simulator.cache_lines = lines; cache_line_size = line_size })) ]
    in
    let* seed = int_range 1 100_000 in
    let* arg_prob = float_range 0.1 0.8 in
    let* loc_prob = float_range 0.05 (0.99 -. arg_prob) in
    let* bind_prob = float_range 0.0 0.2 in
    let* read_prob = float_range 0.0 0.2 in
    return
      { Core.Simulator.table_size; policy; arg_prob; loc_prob; bind_prob; read_prob;
        seed; split_counts; eager_decrement; cache })

let print_config c = Core.Simulator.config_fingerprint c

let prop_flat_matches_reference =
  QCheck.Test.make ~name:"run_packed = run_reference on random configs" ~count:60
    (QCheck.make ~print:print_config gen_config) (fun cfg ->
      let pre = synth_pre ~seed:(1 + (cfg.Core.Simulator.seed mod 5)) () in
      let s_ref = Oracle.Reference.run_reference cfg pre in
      let s_flat = Core.Simulator.run cfg pre in
      compare s_ref s_flat = 0)

let prop_run_source_matches_reference =
  QCheck.Test.make ~name:"run_source = run_reference over the binary store" ~count:12
    (QCheck.make ~print:print_config gen_config) (fun cfg ->
      let capture =
        Trace.Synth.generate
          { Trace.Synth.default with
            length = 2_000; seed = 1 + (cfg.Core.Simulator.seed mod 5) }
      in
      let path = Filename.temp_file "smallsim-simkernel" ".smtb" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
           Trace.Io.save ~format:Trace.Io.Binary path capture;
           let s_ref =
             Oracle.Reference.run_reference cfg (Trace.Preprocess.run capture)
           in
           let s_src = Core.Simulator.run cfg (scan_file path) in
           compare s_ref s_src = 0))

let test_flat_matches_reference_deep () =
  (* a long trace through tight tables: overflow mode, compression and
     cycle recovery all crossed, on both policies with metrics attached
     on one side (the registry must not perturb the stats) *)
  List.iter
    (fun (policy, table_size, split_counts) ->
       let cfg =
         { Core.Simulator.default_config with
           policy; table_size; split_counts; seed = 5 }
       in
       let pre = synth_pre ~length:12_000 ~seed:3 () in
       let reg = Obs.Registry.create () in
       let s_ref = Oracle.Reference.run_reference cfg pre in
       let s_flat = Core.Simulator.run ~metrics:reg cfg pre in
       check_stats_equal
         (Printf.sprintf "policy=%s size=%d split=%b"
            (match policy with Core.Lpt.Compress_one -> "one" | _ -> "all")
            table_size split_counts)
         s_ref s_flat)
    [ (Core.Lpt.Compress_one, 96, false); (Core.Lpt.Compress_all, 96, true);
      (Core.Lpt.Compress_one, 2048, true); (Core.Lpt.Compress_all, 512, false) ]

let test_pack_of_scan_equals_pack () =
  let capture = Trace.Synth.generate { Trace.Synth.default with length = 3_000 } in
  let path = Filename.temp_file "smallsim-pack" ".smtb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       Trace.Io.save ~format:Trace.Io.Binary path capture;
       let p = Core.Simulator.pack (Trace.Preprocess.run capture) in
       let p' = Core.Simulator.pack (scan_file path) in
       Alcotest.(check bool) "identical packed traces" true (compare p p' = 0);
       Alcotest.(check int) "event counts" (Core.Simulator.packed_events p)
         (Core.Simulator.packed_events p');
       let cfg = { Core.Simulator.default_config with table_size = 256; seed = 8 } in
       check_stats_equal "scanned replay"
         (Core.Simulator.run_packed cfg p) (Core.Simulator.run_packed cfg p'))

(* ---- steady-state allocation ceiling of the flat kernel ---- *)

let test_flat_allocation_ceiling () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ ->
    () (* the ceiling is a native-code property *)
  | Sys.Native ->
    let pre = synth_pre ~length:40_000 ~seed:6 () in
    let packed = Core.Simulator.pack pre in
    let prims =
      (Trace.Synth.generate { Trace.Synth.default with length = 40_000; seed = 6 }
       |> Trace.Capture.stats).Trace.Capture.primitives
    in
    let cfg = { Core.Simulator.default_config with table_size = 8192 } in
    ignore (Core.Simulator.run_packed cfg packed);
    let before = Gc.allocated_bytes () in
    ignore (Core.Simulator.run_packed cfg packed);
    let per_event = (Gc.allocated_bytes () -. before) /. float_of_int prims in
    if per_event > 128.0 then
      Alcotest.failf "flat kernel allocates %.1f bytes/prim (ceiling 128)" per_event

let () =
  Alcotest.run "simkernel"
    [ ("rng",
       [ Alcotest.test_case "streams exact vs int64 reference" `Quick
           test_rng_streams_exact;
         Alcotest.test_case "split streams exact" `Quick test_rng_split_exact;
         Alcotest.test_case "weighted buckets" `Quick test_weighted_buckets;
         Alcotest.test_case "weighted single draw and edges" `Quick
           test_weighted_single_draw_and_edges ]);
      ("fingerprint memo",
       [ Alcotest.test_case "hot keys survive churn" `Quick
           test_fingerprint_memo_hot_keys_survive ]);
      ("equivalence",
       [ Alcotest.test_case "deep configs byte-identical" `Quick
           test_flat_matches_reference_deep;
         Alcotest.test_case "pack . run_source = pack . run" `Quick
           test_pack_of_scan_equals_pack ]);
      ("allocation",
       [ Alcotest.test_case "steady-state ceiling" `Quick test_flat_allocation_ceiling ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_flat_matches_reference; prop_run_source_matches_reference ]) ]
