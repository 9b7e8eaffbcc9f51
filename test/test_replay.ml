(* Zero-copy replay: equivalence of the mapped, Bytes-fallback and
   streaming channel readers, and their common rejection of other format
   revisions and trailer-less streams; corruption fuzz of the mapped path; the
   header-only stats path; and the determinism regression that flat-batch
   preprocessing (and simulation on top of it) is byte-identical to the
   capture-based pipeline. *)

module D = Sexp.Datum
module E = Trace.Event
module B = Trace.Binary

let mk_capture events =
  let c = Trace.Capture.create () in
  List.iter (Trace.Capture.record c) events;
  c

let prim p args result = E.Prim { prim = p; args; result }

let captures_equal c c' =
  Trace.Capture.length c = Trace.Capture.length c'
  && Array.for_all2
       (fun a b -> D.equal (Trace.Io.event_to_datum a) (Trace.Io.event_to_datum b))
       (Trace.Capture.events c) (Trace.Capture.events c')

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let with_temp_trace data f =
  let path = Filename.temp_file "replay" ".smtb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       write_file path data;
       f path)

(* Decode [data] through each reader. *)
let via_mapped path = B.capture_of_source (B.source_of_path path)
let via_bytes path = B.capture_of_source (B.source_of_path ~mmap:false path)
let via_string data = B.capture_of_source (B.source_of_string data)

let via_channel path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> B.read_channel ic)

let encode ?(chunk_events = 4096) capture =
  let buf = Buffer.create 4096 in
  let path = Filename.temp_file "replayenc" ".smtb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let oc = open_out_bin path in
       let w = B.writer ~chunk_events oc in
       Array.iter (B.write_event w) (Trace.Capture.events capture);
       B.close_writer w;
       close_out oc;
       let ic = open_in_bin path in
       Buffer.add_string buf (really_input_string ic (in_channel_length ic));
       close_in ic;
       Buffer.contents buf)

(* FNV-1a 64 and the framing, to hand-build streams the writer never
   produces and to re-seal damaged ones. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
       h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let be64 h =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical h (8 * (7 - i))) land 0xff))

(* Header end, payload start and payload length of a one-chunk stream. *)
let payload_span data =
  let varint pos =
    let rec go pos shift acc =
      let c = Char.code data.[pos] in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
    in
    go pos 0 0
  in
  let _count, p = varint (String.length B.magic) in
  let len, p = varint p in
  (p, p + 8, len)

(* Recompute the checksums of a one-chunk stream, so a damaged payload
   passes verification and reaches the decoder. *)
let reseal data =
  let header_end, start, len = payload_span data in
  let payload = String.sub data start len in
  let header = String.sub data 0 header_end ^ be64 (fnv64 payload) in
  header ^ payload ^ "\x00" ^ "SMCK" ^ be64 (fnv64 (header ^ "\x00"))

(* ---- reader equivalence ---- *)

let check_all_readers name capture data =
  with_temp_trace data (fun path ->
      Alcotest.(check bool) (name ^ ": mapped") true
        (captures_equal capture (via_mapped path));
      Alcotest.(check bool) (name ^ ": bytes fallback") true
        (captures_equal capture (via_bytes path));
      Alcotest.(check bool) (name ^ ": string source") true
        (captures_equal capture (via_string data));
      Alcotest.(check bool) (name ^ ": channel") true
        (captures_equal capture (via_channel path)))

(* Every reader, and [Trace.Io.load], must refuse [data] with the typed
   error and [reason]. *)
let check_all_reject name ~reason data =
  let expect what decode =
    match decode () with
    | (_ : Trace.Capture.t) -> Alcotest.failf "%s: %s loaded silently" name what
    | exception B.Corrupt { reason = r; _ } ->
      Alcotest.(check string) (Printf.sprintf "%s: %s reason" name what) reason r
    | exception Trace.Io.Corrupt { reason = r; _ } ->
      Alcotest.(check string) (Printf.sprintf "%s: %s reason" name what) reason r
  in
  with_temp_trace data (fun path ->
      expect "mapped" (fun () -> via_mapped path);
      expect "bytes fallback" (fun () -> via_bytes path);
      expect "string source" (fun () -> via_string data);
      expect "channel" (fun () -> via_channel path);
      expect "Trace.Io.load" (fun () -> Trace.Io.load path))

(* The one revision written (v2) round-trips through every reader; a
   stream announcing revision 1, and a v2 stream without its checksum
   trailer, are refused by every reader. *)
let test_readers_agree_synth () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 3000; seed = 7 } in
  let data = encode ~chunk_events:100 c in
  check_all_readers "v2 multi-chunk" c data;
  let v1 = Bytes.of_string data in
  Bytes.set v1 4 '\x01';
  check_all_reject "v1 multi-chunk" ~reason:"unsupported binary trace version"
    (Bytes.to_string v1);
  check_all_reject "trailer-less" ~reason:"truncated checksum trailer"
    (String.sub data 0 (String.length data - 12))

let test_readers_agree_edge_chunking () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 64; seed = 11 } in
  (* one event per chunk, and everything in one chunk *)
  check_all_readers "chunk_events=1" c (encode ~chunk_events:1 c);
  check_all_readers "chunk_events=4096" c (encode ~chunk_events:4096 c)

let test_empty_trace () =
  let c = mk_capture [] in
  check_all_readers "empty" c (encode c)

(* ---- the batch adapter ---- *)

let test_batch_adapter_roundtrip () =
  let c =
    mk_capture
      [ E.Call { name = "Weird Name"; nargs = 0 };
        prim E.Cons [ D.int (-1); D.str "s \"q\" \n" ]
          (D.cons (D.int max_int) (D.int min_int));
        prim E.Car [ Sexp.parse "((a . b) (c d . e))" ] (Sexp.parse "(a . b)");
        prim E.Cdr [ D.Nil ] D.Nil;
        prim E.Rplacd [ Sexp.parse "(((((x)))))"; D.sym "y" ] (Sexp.parse "(((((x)))))");
        E.Return { name = "Weird Name" } ]
  in
  let data = encode c in
  let events = ref [] in
  B.iter_source (B.source_of_string data) (fun e -> events := e :: !events);
  let events = Array.of_list (List.rev !events) in
  Alcotest.(check int) "length" (Trace.Capture.length c) (Array.length events);
  Array.iteri
    (fun i e ->
       Alcotest.(check bool) (Printf.sprintf "event %d" i) true
         (e = (Trace.Capture.events c).(i)))
    events

(* ---- header-only statistics ---- *)

let test_header_stats_no_decode () =
  (* a multi-MB trace: the header walk must answer without decoding
     payloads or materialising events — asserted by an allocation
     budget far below the file size *)
  let c = Trace.Synth.generate { Trace.Synth.default with length = 300_000; seed = 2 } in
  let data = encode c in
  Alcotest.(check bool) "trace is multi-MB" true (String.length data > 2_000_000);
  with_temp_trace data (fun path ->
      let src = B.source_of_path path in
      let before = Gc.allocated_bytes () in
      let hs = B.header_stats src in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check int) "events from headers" (Trace.Capture.length c)
        hs.B.h_events;
      Alcotest.(check int) "stream length" (String.length data) hs.B.h_bytes;
      Alcotest.(check bool) "several chunks" true (hs.B.h_chunks > 10);
      Alcotest.(check bool)
        (Printf.sprintf "header walk allocates little (%.0f bytes)" allocated)
        true
        (allocated < 1_000_000.));
  (* and scan_stats agrees with the capture-side statistics *)
  let st = Trace.Capture.stats c in
  let st' = B.scan_stats (B.source_of_string data) in
  Alcotest.(check bool) "scan_stats matches capture stats" true (st = st')

let test_header_stats_detects_damage () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 500; seed = 4 } in
  let data = encode c in
  (* flip a byte inside a chunk *header* (just past the magic): the
     structural trailer must catch it even though payloads are skipped *)
  let b = Bytes.of_string data in
  Bytes.set b 6 (Char.chr (Char.code (Bytes.get b 6) lxor 1));
  match B.header_stats (B.source_of_string (Bytes.to_string b)) with
  | _ -> Alcotest.fail "damaged header accepted"
  | exception B.Corrupt _ -> ()

(* ---- corruption fuzz of the mapped path ---- *)

let gen_datum =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let atom =
          oneof
            [ return D.Nil;
              map D.int (int_range (-1000) 1000);
              map D.sym (oneofl [ "a"; "b"; "x"; "longer-symbol" ]);
              map D.str (oneofl [ ""; "s"; "two words" ]) ]
        in
        if n <= 0 then atom
        else
          frequency
            [ (2, atom);
              (3,
               map2
                 (fun elems tail -> List.fold_right D.cons elems tail)
                 (list_size (int_range 1 4) (self (n / 2)))
                 (oneof [ return D.Nil; map D.int (int_range 0 9) ])) ]))

let gen_event =
  QCheck.Gen.(
    frequency
      [ (1, map2 (fun name nargs -> E.Call { name; nargs })
             (oneofl [ "f"; "g"; "h" ]) (int_range 0 4));
        (1, map (fun name -> E.Return { name }) (oneofl [ "f"; "g"; "h" ]));
        (4,
         map3
           (fun p args result -> prim p args result)
           (oneofl [ E.Car; E.Cdr; E.Cons; E.Rplaca; E.Rplacd ])
           (list_size (int_range 0 3) gen_datum)
           gen_datum) ])

let prop_readers_equivalent =
  QCheck.Test.make ~name:"mapped = bytes = string = channel readers" ~count:60
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 0 50) gen_event) (int_range 1 16)))
    (fun (events, chunk_events) ->
      let c = mk_capture events in
      let data = encode ~chunk_events c in
      with_temp_trace data (fun path ->
          captures_equal c (via_mapped path)
          && captures_equal c (via_bytes path)
          && captures_equal c (via_string data)
          && captures_equal c (via_channel path)))

let preprocessed_equal (a : Trace.Preprocess.t) (b : Trace.Preprocess.t) =
  a.Trace.Preprocess.events = b.Trace.Preprocess.events
  && a.Trace.Preprocess.distinct_lists = b.Trace.Preprocess.distinct_lists
  && a.Trace.Preprocess.stats = b.Trace.Preprocess.stats
  && a.Trace.Preprocess.np_by_id = b.Trace.Preprocess.np_by_id

(* The scanning consumers of a possibly damaged stream: [pack_source]
   and [run_source] must each raise the typed Corrupt or return exactly
   what the clean stream [data] gives.  [None] when both hold, else
   what went wrong. *)
let typed_or_clean data src =
  let clean = B.source_of_string data in
  let check name f same =
    match f (src ()) with
    | r -> if same r (f clean) then None else Some (name ^ ": silent misread")
    | exception B.Corrupt _ -> None
    | exception e -> Some (name ^ " raised " ^ Printexc.to_string e)
  in
  match
    check "pack_source" Core.Simulator.pack_source (fun a b -> compare a b = 0)
  with
  | Some _ as failure -> failure
  | None -> check "run_source" Trace.Preprocess.run_source preprocessed_equal

(* Byte-flips and truncations of a valid stream, decoded through the
   mapped reader: must yield a typed Corrupt or a valid capture — never
   another exception, crash or hang.  Exercises both the mmap and
   Bytes-fallback views. *)
let prop_mapped_fuzz_corruption =
  QCheck.Test.make ~name:"corrupted streams fail typed on the mapped path"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad
           (list_size (int_range 1 30) gen_event)
           (list_size (int_range 0 6) (pair (int_range 0 10_000) (int_range 1 255)))
           (opt (int_range 0 10_000))
           bool))
    (fun (events, flips, trunc, use_mmap) ->
      let data = encode (mk_capture events) in
      let b = Bytes.of_string data in
      List.iter
        (fun (pos, x) ->
           let pos = pos mod Bytes.length b in
           Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x)))
        flips;
      let mutated =
        match trunc with
        | Some cut -> Bytes.sub_string b 0 (cut mod (Bytes.length b + 1))
        | None -> Bytes.to_string b
      in
      with_temp_trace mutated (fun path ->
          let src () = B.source_of_path ~mmap:use_mmap path in
          (match B.capture_of_source (src ()) with
           | (_ : Trace.Capture.t) -> true
           | exception B.Corrupt _ -> true
           | exception _ -> false)
          && typed_or_clean data src = None))

(* Every single-bit flip in a v2 stream must be caught by the mapped
   reader (per-chunk FNV for payloads, the structural trailer for
   framing) — the mapped-path twin of the channel-reader test. *)
let test_mapped_checksum_catches_bitflip () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 80; seed = 3 } in
  let data = encode c in
  let clean = ref 0 and caught = ref 0 in
  for pos = String.length B.magic to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    match B.capture_of_source (B.source_of_string (Bytes.to_string b)) with
    | _ -> incr clean
    | exception B.Corrupt _ -> incr caught
  done;
  Alcotest.(check int) "every bit-flip detected" 0 !clean;
  Alcotest.(check bool) "some flips exercised" true (!caught > 0)

(* The same battery through the scanning consumers, whose decoder reads
   bytes unchecked behind its own bounds checks: every byte flip and
   every truncation of a stream, over a mapped file, a file read into
   memory and a string, must give the typed Corrupt or the clean
   result. *)
let test_scanners_flip_and_cut () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 80; seed = 3 } in
  let data = encode c in
  let path = Filename.temp_file "scanfuzz" ".smtb" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let tried = ref 0 in
  let check label mutated =
    write_file path mutated;
    List.iter
      (fun (view, src) ->
         incr tried;
         match typed_or_clean data src with
         | None -> ()
         | Some what -> Alcotest.failf "%s (%s): %s" label view what)
      [ ("mapped", fun () -> B.source_of_path path);
        ("read", fun () -> B.source_of_path ~mmap:false path);
        ("string", fun () -> B.source_of_string mutated) ]
  in
  for pos = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    check (Printf.sprintf "flip at %d" pos) (Bytes.to_string b)
  done;
  for cut = 0 to String.length data - 1 do
    check (Printf.sprintf "cut at %d" cut) (String.sub data 0 cut)
  done;
  Alcotest.(check int) "every damaged stream scanned" (6 * String.length data) !tried;
  (* re-sealed payload flips get past the checksums: the scanners must
     fail typed, or agree with the independent channel reader *)
  Alcotest.(check string) "reseal is the identity on a clean stream" data (reseal data);
  let _, start, len = payload_span data in
  let decoded = ref 0 in
  for pos = start to start + len - 1 do
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    let mutated = reseal (Bytes.to_string b) in
    write_file path mutated;
    (* a flipped argument count may exceed the packed kernel's 24
       positions: a documented refusal, on both sides alike *)
    let outcome f =
      match f () with
      | r -> Ok r
      | exception B.Corrupt _ -> Error "corrupt"
      | exception Invalid_argument m when m = "Simulator.pack: primitive arity beyond 24 unsupported" ->
        Error "too wide"
    in
    let channel =
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      outcome (fun () -> Trace.Preprocess.run (B.read_channel ic))
    in
    let agree what got want same =
      match got (), want with
      | Ok r, Ok r' -> incr decoded; same r r'
      | Error e, Error e' -> e = e'
      | _ -> false
      | exception e ->
        Alcotest.failf "re-sealed flip at %d: %s raised %s" pos what (Printexc.to_string e)
    in
    List.iter
      (fun (view, src) ->
         if not
             (agree "run_source" (fun () -> outcome (fun () -> Trace.Preprocess.run_source (src ())))
                (Result.map_error (fun _ -> "corrupt") channel) preprocessed_equal
              && agree "pack_source"
                   (fun () -> outcome (fun () -> Core.Simulator.pack_source (src ())))
                   (Result.bind channel (fun pre -> outcome (fun () -> Core.Simulator.pack pre)))
                   (fun a b -> compare a b = 0))
         then Alcotest.failf "re-sealed flip at %d (%s): differs from the channel reader" pos view)
      [ ("mapped", fun () -> B.source_of_path path);
        ("in memory", fun () -> B.source_of_string mutated) ]
  done;
  Alcotest.(check bool) "some re-sealed flips decode" true (!decoded > 0)

(* The lib/fault battery against the mapped reader: a torn write (a
   lying disk landing a strict prefix, injected at site "trace.save")
   must never load — the trailer is mandatory, so every strict prefix
   raises the typed Corrupt. *)
let test_torn_write_detected_by_mapped_reader () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 400; seed = 12 } in
  let detected = ref 0 in
  for seed = 1 to 20 do
    let plan = Fault.Plan.create { Fault.Plan.default with seed; torn_write = 1.0 } in
    let path = Filename.temp_file "torn" ".smtb" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
         B.save ~fault:plan path c;
         match via_mapped path with
         | (_ : Trace.Capture.t) -> ()
         | exception B.Corrupt _ -> incr detected)
  done;
  Alcotest.(check int) "every torn write detected" 20 !detected

(* ---- preprocessing determinism ---- *)

let test_run_source_matches_run_synth () =
  let check label c =
    let data = encode ~chunk_events:256 c in
    Alcotest.(check bool) label true
      (preprocessed_equal (Trace.Preprocess.run c)
         (Trace.Preprocess.run_source (B.source_of_string data)))
  in
  List.iter
    (fun (length, seed) ->
       check
         (Printf.sprintf "identical preprocessing (len %d seed %d)" length seed)
         (Trace.Synth.generate { Trace.Synth.default with length; seed }))
    [ (2000, 1); (5000, 42); (1000, 9) ];
  (* primitives wider than any synthetic one: twelve arguments, lists
     and atoms mixed, one of them the previous result *)
  let l i = D.list [ D.int i; D.int (i + 1) ] in
  let wide = List.init 12 (fun i -> if i mod 3 = 0 then D.int i else l (i mod 5)) in
  check "identical preprocessing (12-argument primitives)"
    (mk_capture
       [ prim E.Cons [ D.int 0; l 1 ] (l 0);
         prim E.Car (l 0 :: wide) (D.int 0);
         prim E.Rplaca wide (l 2) ])

let prop_run_source_matches_run =
  QCheck.Test.make ~name:"run_source = run . capture" ~count:60
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 0 60) gen_event) (int_range 1 8)))
    (fun (events, chunk_events) ->
      let c = mk_capture events in
      let data = encode ~chunk_events c in
      preprocessed_equal (Trace.Preprocess.run c)
        (Trace.Preprocess.run_source (B.source_of_string data)))

(* ---- the scanner's replacements for datum oracles ---- *)

(* A fresh id's (n, p) is counted off its tokens; it must equal
   [Sexp.Metrics.np] of the datum those tokens materialise to.  Each
   list is a cons argument and a cons result, so it takes two fresh
   ids. *)
let gen_list =
  QCheck.Gen.(
    map2
      (fun elems tail -> List.fold_right D.cons elems tail)
      (list_size (int_range 1 5) gen_datum)
      (oneof [ return D.Nil; map D.int (int_range (-9) 9); return (D.sym "t") ]))

let prop_token_np =
  QCheck.Test.make ~name:"token (n, p) = Metrics.np of the datum" ~count:200
    (QCheck.make ~print:Sexp.Printer.to_string gen_list)
    (fun d ->
      let data = encode (mk_capture [ prim E.Cons [ d ] d ]) in
      let src () = B.source_of_string data in
      let expected =
        match Trace.Capture.events (B.capture_of_source (src ())) with
        | [| E.Prim { result; _ } |] -> Sexp.Metrics.np result
        | _ -> QCheck.Test.fail_report "one event expected"
      in
      let pre = Trace.Preprocess.run_source (src ()) in
      pre.Trace.Preprocess.np_by_id = [| expected; expected |]
      && expected = Sexp.Metrics.np d)

(* One chunk of [count] events with [payload] (single-byte varints). *)
let framed ~count payload =
  let structure = Printf.sprintf "%s%c%c%s\x00" B.magic (Char.chr count)
      (Char.chr (String.length payload)) (be64 (fnv64 payload)) in
  let header = String.sub structure 0 (String.length structure - 1) in
  header ^ payload ^ "\x00" ^ "SMCK" ^ be64 (fnv64 structure)

(* Improper spines whose explicit tail is itself a list: the tail
   continues the spine, so its elements count at the spine's level. *)
let test_token_np_list_tail () =
  List.iter
    (fun (label, datum_bytes, np) ->
       (* cons with no arguments, the hand-built datum as its result *)
       let data = framed ~count:1 ("\x04\x00" ^ datum_bytes) in
       let pre = Trace.Preprocess.run_source (B.source_of_string data) in
       Alcotest.(check (array (pair int int))) (label ^ ": token (n, p)")
         [| np |] pre.Trace.Preprocess.np_by_id;
       let oracle = Trace.Preprocess.run (B.capture_of_source (B.source_of_string data)) in
       Alcotest.(check bool) (label ^ ": run_source = run . capture") true
         (preprocessed_equal oracle pre);
       Alcotest.(check bool) (label ^ ": pack_source = pack . run") true
         (compare (Core.Simulator.pack oracle)
            (Core.Simulator.pack_source (B.source_of_string data)) = 0))
    [ (* (1 . (2 3)) = (1 2 3) *)
      ("proper list tail", "\x06\x01\x02\x02\x05\x02\x02\x04\x02\x06", (3, 0));
      (* (1 . ((2) . 3)) = (1 (2) . 3) *)
      ("improper list tail", "\x06\x01\x02\x02\x06\x01\x05\x01\x02\x04\x02\x06",
       (3, 1)) ]

(* Encodings the writer never produces but the decoder accepts, each
   next to a twin with the same datum: the token stream must not tell
   them apart, or one list gets two ids.  Two [car] events in one
   chunk, both with result 1. *)
let test_canonical_tokens () =
  let canonical = "\x05\x03\x02\x02\x02\x04\x02\x06" in
  List.iter
    (fun (label, first, second) ->
       let car arg = "\x02\x01" ^ arg ^ "\x02\x02" in
       let data = framed ~count:2 (car first ^ car second) in
       let src () = B.source_of_string data in
       let oracle = Trace.Preprocess.run (B.capture_of_source (src ())) in
       Alcotest.(check int) (label ^ ": one list") 1 oracle.Trace.Preprocess.distinct_lists;
       Alcotest.(check bool) (label ^ ": run_source = run . capture") true
         (preprocessed_equal oracle (Trace.Preprocess.run_source (src ())));
       Alcotest.(check bool) (label ^ ": pack_source = pack . run") true
         (compare (Core.Simulator.pack oracle) (Core.Simulator.pack_source (src ())) = 0))
    [ (* (1 . (2 3)) = (1 2 3) *)
      ("list tail", canonical, "\x06\x01\x02\x02\x05\x02\x02\x04\x02\x06");
      (* (1 2 3 . ()) = (1 2 3) *)
      ("nil tail", canonical, "\x06\x03\x02\x02\x02\x04\x02\x06\x00");
      (* (foo) with "foo" defined inline in both events *)
      ("string defined twice", "\x05\x01\x01\x00\x03foo", "\x05\x01\x01\x00\x03foo") ]

(* ---- working memory kept between jobs ---- *)

let pack_oracle c = Core.Simulator.pack (Trace.Preprocess.run c)

(* [pack_source] over a file read through the scoped entry point. *)
let scoped_pack path =
  Trace.Io.with_path path (fun _ loaded ->
      match loaded with
      | Trace.Io.Binary_source src -> Core.Simulator.pack_source src
      | Trace.Io.Sexp_capture c -> Core.Simulator.pack (Trace.Preprocess.run c))

let with_trace_files captures f =
  let paths =
    List.map
      (fun c ->
         let path = Filename.temp_file "scoped" ".smtb" in
         write_file path (encode ~chunk_events:256 c);
         path)
      captures
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f paths)

(* One domain serves a large trace, a small one, the large one again, a
   stream that fails mid-scan and the small one again: whatever the
   kept buffers held before, every answer is the oracle's.  A chunk
   that fails in the middle of a datum is followed by a trace whose
   first datum is a list it uses twice, so a kept batch that carried
   any of the failed datum's state into the next stream would give
   that list two ids. *)
let test_reuse_sequence () =
  let large = Trace.Synth.generate { Trace.Synth.default with length = 30_000; seed = 5 } in
  let small = Trace.Synth.generate { Trace.Synth.default with length = 300; seed = 6 } in
  let damaged =
    let b = Bytes.of_string (encode ~chunk_events:256 large) in
    let pos = Bytes.length b - 200 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    Bytes.to_string b
  in
  let twice =
    let l = D.list [ D.int 1; D.int 2 ] in
    mk_capture [ prim E.Car [ l ] (D.int 1); prim E.Car [ l ] (D.int 1) ]
  in
  with_trace_files [ large; small; twice ] @@ fun paths ->
  let lp, sp, tp = match paths with [ l; s; t ] -> (l, s, t) | _ -> assert false in
  let check label path c =
    Alcotest.(check bool) label true (compare (scoped_pack path) (pack_oracle c) = 0)
  in
  check "large" lp large;
  let kept = Trace.Scratch.retained_bytes () in
  Alcotest.(check bool) "working memory is kept" true (kept > 0);
  check "large again" lp large;
  Alcotest.(check int) "a repeat keeps the same memory" kept (Trace.Scratch.retained_bytes ());
  check "small" sp small;
  Alcotest.(check bool) "a far smaller job lets the large buffers go" true
    (Trace.Scratch.retained_bytes () < kept);
  check "large after small" lp large;
  with_temp_trace damaged (fun dp ->
      match scoped_pack dp with
      | _ -> Alcotest.fail "a damaged chunk was accepted"
      | exception Trace.Io.Corrupt { reason; _ } ->
        Alcotest.(check string) "fails mid-scan" "chunk checksum mismatch" reason);
  check "small after a failed scan" sp small;
  check "large after a failed scan" lp large;
  (* a car whose list argument ends after its first car *)
  with_temp_trace (framed ~count:1 "\x02\x01\x05\x02\x02\x02\x01") (fun dp ->
      match scoped_pack dp with
      | _ -> Alcotest.fail "a truncated datum was accepted"
      | exception Trace.Io.Corrupt { reason; _ } ->
        Alcotest.(check string) "fails mid-datum" "string ref: varint past end" reason);
  check "a list used twice, after a mid-datum failure" tp twice

(* A scan started from inside another scan's callback gets storage of
   its own: both results are exact. *)
let test_nested_scan () =
  let outer = Trace.Synth.generate { Trace.Synth.default with length = 4000; seed = 7 } in
  let inner = Trace.Synth.generate { Trace.Synth.default with length = 3000; seed = 8 } in
  with_trace_files [ outer; inner ] @@ fun paths ->
  let op, ip = match paths with [ o; i ] -> (o, i) | _ -> assert false in
  let nested = ref None in
  let sizes =
    Trace.Io.with_path op (fun _ loaded ->
        match loaded with
        | Trace.Io.Sexp_capture _ -> Alcotest.fail "binary trace expected"
        | Trace.Io.Binary_source src ->
          Trace.Preprocess.scan_source src ~call:(fun ~nargs:_ -> ()) ~return_:ignore
            ~prim:(fun ~kind:_ ~nargs:_ ~prev:_ _ ->
                if !nested = None then nested := Some (scoped_pack ip)))
  in
  Alcotest.(check bool) "outer scan exact" true
    (sizes
     = Array.map (fun (n, p) -> max 1 (n + p))
         (Trace.Preprocess.run outer).Trace.Preprocess.np_by_id);
  Alcotest.(check bool) "nested scan exact" true
    (compare !nested (Some (pack_oracle inner)) = 0)

(* Two domains, each with its own kept memory, packing different traces
   in turn. *)
let test_two_domains () =
  let a = Trace.Synth.generate { Trace.Synth.default with length = 5000; seed = 9 } in
  let b = Trace.Synth.generate { Trace.Synth.default with length = 2000; seed = 10 } in
  with_trace_files [ a; b ] @@ fun paths ->
  let work = List.combine paths [ pack_oracle a; pack_oracle b ] in
  let worker order () =
    List.for_all (fun i -> let p, want = List.nth work i in compare (scoped_pack p) want = 0) order
  in
  let d1 = Domain.spawn (worker [ 0; 1; 0; 1; 1; 0 ]) in
  let d2 = Domain.spawn (worker [ 1; 0; 0; 1; 0; 1 ]) in
  Alcotest.(check bool) "domain 1 exact" true (Domain.join d1);
  Alcotest.(check bool) "domain 2 exact" true (Domain.join d2)

(* A scoped source, or a reader over it, used after [with_path]
   returns. *)
let test_use_after_scope () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 500; seed = 11 } in
  with_trace_files [ c ] @@ fun paths ->
  let path = List.hd paths in
  let escape f =
    Trace.Io.with_path path (fun _ loaded ->
        match loaded with
        | Trace.Io.Binary_source src -> f src
        | Trace.Io.Sexp_capture _ -> Alcotest.fail "binary trace expected")
  in
  let refused label f =
    match f () with
    | _ -> Alcotest.failf "%s: used after its scope" label
    | exception Invalid_argument _ -> ()
  in
  let src = escape Fun.id in
  refused "source_length" (fun () -> B.source_length src);
  refused "iter_batches" (fun () -> B.iter_batches src ignore);
  refused "pack_source" (fun () -> Core.Simulator.pack_source src);
  let r = escape B.read_source in
  refused "next_batch" (fun () -> B.next_batch r)

(* The every-byte flip and truncation battery through the scoped read,
   all in one domain, so each case starts on the memory the last one
   (clean, damaged or failed) left behind. *)
let test_scoped_flip_and_cut () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 80; seed = 3 } in
  let data = encode c in
  let want_pack = pack_oracle c and want_pre = Trace.Preprocess.run c in
  let path = Filename.temp_file "scopedfuzz" ".smtb" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let check label mutated =
    write_file path mutated;
    let typed_or_exact what f same want =
      match Trace.Io.with_path path (fun _ loaded -> f loaded) with
      | r -> if not (same r want) then Alcotest.failf "%s: %s: silent misread" label what
      | exception Trace.Io.Corrupt _ -> ()
      | exception e -> Alcotest.failf "%s: %s raised %s" label what (Printexc.to_string e)
    in
    let binary f = function
      | Trace.Io.Binary_source src -> f src
      | Trace.Io.Sexp_capture _ -> Alcotest.failf "%s: read as sexp lines" label
    in
    typed_or_exact "pack_source" (binary Core.Simulator.pack_source)
      (fun a b -> compare a b = 0) want_pack;
    typed_or_exact "run_source" (binary Trace.Preprocess.run_source)
      preprocessed_equal want_pre
  in
  for pos = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    check (Printf.sprintf "flip at %d" pos) (Bytes.to_string b);
    check "clean between cases" data
  done;
  (* from 1: an empty file is an empty sexp-lines trace *)
  for cut = 1 to String.length data - 1 do
    check (Printf.sprintf "cut at %d" cut) (String.sub data 0 cut)
  done

(* Synthetic traces plus events that intern more than 127 strings
   (multi-byte string references, symbols past the one-byte tags) and
   carry large ints (multi-byte varints), repeating each such list so
   it is also looked up, not only inserted. *)
let gen_wide_trace =
  QCheck.Gen.(
    map3
      (fun (length, seed) extra big ->
         let synth = Trace.Synth.generate { Trace.Synth.default with length; seed } in
         let wide i =
           let l = D.list [ D.sym (Printf.sprintf "s%d" i); D.int (big + i);
                            D.list [ D.str (Printf.sprintf "t%d" i); D.int (-big - i) ] ] in
           [ E.Call { name = Printf.sprintf "fn%d" i; nargs = 1 };
             prim E.Cons [ D.int max_int; D.nil ] l;
             prim E.Car [ l ] (D.sym (Printf.sprintf "s%d" i));
             E.Return { name = Printf.sprintf "fn%d" i } ]
         in
         let events = Array.to_list (Trace.Capture.events synth) in
         let every = max 1 (List.length events / extra) in
         mk_capture
           (List.concat
              (List.mapi
                 (fun j e -> if j mod every = 0 then e :: wide (j / every) else [ e ])
                 events)))
      (pair (int_range 200 1500) (int_range 0 1000))
      (int_range 130 300)
      (oneofl [ 1 lsl 20; 1 lsl 40; max_int / 2; min_int / 2 ]))

let prop_scanners_match_oracles =
  QCheck.Test.make ~name:"pack_source = pack . run, run_source = run (wide traces)"
    ~count:25 (QCheck.make gen_wide_trace)
    (fun c ->
      let data = encode ~chunk_events:512 c in
      let oracle = Trace.Preprocess.run c in
      preprocessed_equal oracle (Trace.Preprocess.run_source (B.source_of_string data))
      && compare (Core.Simulator.pack oracle)
           (Core.Simulator.pack_source (B.source_of_string data)) = 0)

(* The end-to-end determinism regression: simulator output over a binary
   trace is identical whichever pipeline fed it. *)
let test_simulator_identical_over_source () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 4000; seed = 6 } in
  let data = encode c in
  let pre_capture = Trace.Preprocess.run c in
  let pre_source = Trace.Preprocess.run_source (B.source_of_string data) in
  List.iter
    (fun cfg ->
       let s1 = Core.Simulator.run cfg pre_capture in
       let s2 = Core.Simulator.run cfg pre_source in
       Alcotest.(check bool) "identical simulator stats" true (s1 = s2))
    [ Core.Simulator.default_config;
      { Core.Simulator.default_config with table_size = 128; seed = 3 };
      { Core.Simulator.default_config with
        split_counts = true;
        cache = Some { Core.Simulator.cache_lines = 64; cache_line_size = 2 } } ]

(* Prim-mix parity across the three ways of counting. *)
let test_prim_mix_parity () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 3000; seed = 8 } in
  let data = encode c in
  let src () = B.source_of_string data in
  let m1 = Analysis.Prim_mix.analyze c in
  let m2 = Analysis.Prim_mix.analyze_source (src ()) in
  let m3 = Analysis.Prim_mix.of_preprocessed (Trace.Preprocess.run_source (src ())) in
  Alcotest.(check bool) "analyze = analyze_source" true (m1 = m2);
  Alcotest.(check bool) "analyze = of_preprocessed" true (m1 = m3)

let () =
  Alcotest.run "replay"
    [ ("equivalence",
       [ Alcotest.test_case "synth both revisions" `Quick test_readers_agree_synth;
         Alcotest.test_case "edge chunking" `Quick test_readers_agree_edge_chunking;
         Alcotest.test_case "empty trace" `Quick test_empty_trace;
         Alcotest.test_case "batch adapter" `Quick test_batch_adapter_roundtrip ]);
      ("header-stats",
       [ Alcotest.test_case "no decode, no materialisation" `Quick
           test_header_stats_no_decode;
         Alcotest.test_case "detects header damage" `Quick
           test_header_stats_detects_damage ]);
      ("corruption",
       [ Alcotest.test_case "mapped path catches bit-flips" `Quick
           test_mapped_checksum_catches_bitflip;
         Alcotest.test_case "torn writes detected" `Quick
           test_torn_write_detected_by_mapped_reader;
         Alcotest.test_case "scanners: every flip and cut" `Quick
           test_scanners_flip_and_cut ]);
      ("determinism",
       [ Alcotest.test_case "run_source = run (synth)" `Quick
           test_run_source_matches_run_synth;
         Alcotest.test_case "simulator identical" `Quick
           test_simulator_identical_over_source;
         Alcotest.test_case "prim mix parity" `Quick test_prim_mix_parity;
         Alcotest.test_case "token (n, p) of list tails" `Quick test_token_np_list_tail;
         Alcotest.test_case "canonical tokens" `Quick test_canonical_tokens ]);
      ("kept memory",
       [ Alcotest.test_case "large, small, failed, again" `Quick test_reuse_sequence;
         Alcotest.test_case "nested scan" `Quick test_nested_scan;
         Alcotest.test_case "two domains" `Quick test_two_domains;
         Alcotest.test_case "use after scope" `Quick test_use_after_scope;
         Alcotest.test_case "scoped: every flip and cut" `Quick test_scoped_flip_and_cut ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_readers_equivalent;
         QCheck_alcotest.to_alcotest prop_mapped_fuzz_corruption;
         QCheck_alcotest.to_alcotest prop_run_source_matches_run;
         QCheck_alcotest.to_alcotest prop_token_np;
         QCheck_alcotest.to_alcotest prop_scanners_match_oracles ]) ]
