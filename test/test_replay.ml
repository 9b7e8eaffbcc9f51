(* Zero-copy replay: equivalence of the owned-read, kept-read and string
   sources with the streaming channel reader ([Oracle.Channel]), and
   their common rejection of other format revisions and trailer-less
   streams; corruption fuzz of the source path; the header-only stats
   path; and the determinism regression that the token scan's flat form
   (and simulation on top of it) is identical to the capture-based
   preprocessing, checked field by field against the capture's own
   datums. *)

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

(* A file read into a source that owns its bytes, as [Trace.Io.open_path]
   reads a binary trace, whatever the file's first bytes say. *)
let owned_source path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd)
    (fun () -> B.source_of_fd fd (Unix.fstat fd).Unix.st_size)

let binary what = function
  | Trace.Io.Binary_source src -> src
  | Trace.Io.Sexp_capture _ -> Alcotest.failf "%s: read as sexp lines" what

(* Decode [data] through each reader. *)
let via_owned path = B.capture_of_source (binary path (Trace.Io.open_path path))

let via_kept path =
  Trace.Io.with_path path (fun _ loaded -> B.capture_of_source (binary path loaded))

let via_string data = B.capture_of_source (B.source_of_string data)

let via_channel path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Oracle.Channel.read_channel ic)

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
      Alcotest.(check bool) (name ^ ": owned read") true
        (captures_equal capture (via_owned path));
      Alcotest.(check bool) (name ^ ": kept read") true
        (captures_equal capture (via_kept path));
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
      expect "owned read" (fun () -> via_owned path);
      expect "kept read" (fun () -> via_kept path);
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
  Oracle.Channel.iter_source (B.source_of_string data) (fun e -> events := e :: !events);
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
      let src = owned_source path in
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
  (* and the scan's statistics agree with the capture-side ones *)
  let st = Trace.Capture.stats c in
  let st' = (Trace.Preprocess.run_source (B.source_of_string data)).Trace.Preprocess.stats in
  Alcotest.(check bool) "scanned stats match capture stats" true (st = st')

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

(* ---- corruption fuzz of the source path ---- *)

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
  QCheck.Test.make ~name:"owned = kept = string = channel readers" ~count:60
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 0 50) gen_event) (int_range 1 16)))
    (fun (events, chunk_events) ->
      let c = mk_capture events in
      let data = encode ~chunk_events c in
      with_temp_trace data (fun path ->
          captures_equal c (via_owned path)
          && captures_equal c (via_kept path)
          && captures_equal c (via_string data)
          && captures_equal c (via_channel path)))

(* The token scan of a possibly damaged stream must raise the typed
   Corrupt or return exactly what the clean stream [data] gives.  [None]
   when that holds, else what went wrong. *)
let typed_or_clean data src =
  match Trace.Preprocess.run_source (src ()) with
  | r ->
    if r = Trace.Preprocess.run_source (B.source_of_string data) then None
    else Some "run_source: silent misread"
  | exception B.Corrupt _ -> None
  | exception e -> Some ("run_source raised " ^ Printexc.to_string e)

(* Byte-flips and truncations of a valid stream, decoded through the
   source path (a string, or a file read into a source that owns it):
   must yield a typed Corrupt or a valid capture — never another
   exception, crash or hang. *)
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
    (fun (events, flips, trunc, from_file) ->
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
          let src () =
            if from_file then owned_source path else B.source_of_string mutated
          in
          (match B.capture_of_source (src ()) with
           | (_ : Trace.Capture.t) -> true
           | exception B.Corrupt _ -> true
           | exception _ -> false)
          && typed_or_clean data src = None))

(* Every single-bit flip in a v2 stream must be caught by the source
   reader (per-chunk FNV for payloads, the structural trailer for
   framing) — the twin of the channel-reader test. *)
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

(* The same battery through the token scan, whose decoder reads bytes
   unchecked behind its own bounds checks: every byte flip and every
   truncation of a stream, over a file read into memory and a string,
   must give the typed Corrupt or the clean result. *)
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
      [ ("read", fun () -> owned_source path);
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
  Alcotest.(check int) "every damaged stream scanned" (4 * String.length data) !tried;
  (* re-sealed payload flips get past the checksums: the scan must fail
     typed, or agree with the independent channel reader *)
  Alcotest.(check string) "reseal is the identity on a clean stream" data (reseal data);
  let _, start, len = payload_span data in
  let decoded = ref 0 in
  for pos = start to start + len - 1 do
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    let mutated = reseal (Bytes.to_string b) in
    write_file path mutated;
    let outcome f = match f () with r -> Ok r | exception B.Corrupt _ -> Error () in
    let channel = outcome (fun () -> Trace.Preprocess.run (via_channel path)) in
    List.iter
      (fun (view, src) ->
         match outcome (fun () -> Trace.Preprocess.run_source (src ())), channel with
         | Ok r, Ok r' -> incr decoded; if r <> r' then
             Alcotest.failf "re-sealed flip at %d (%s): differs from the channel reader" pos view
         | Error (), Error () -> ()
         | _ -> Alcotest.failf "re-sealed flip at %d (%s): differs from the channel reader" pos view
         | exception e ->
           Alcotest.failf "re-sealed flip at %d (%s): raised %s" pos view (Printexc.to_string e))
      [ ("read", fun () -> owned_source path);
        ("in memory", fun () -> B.source_of_string mutated) ]
  done;
  Alcotest.(check bool) "some re-sealed flips decode" true (!decoded > 0)

(* The lib/fault battery against the source reader: a torn write (a
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
         match via_owned path with
         | (_ : Trace.Capture.t) -> ()
         | exception (B.Corrupt _ | Trace.Io.Corrupt _) -> incr detected)
  done;
  Alcotest.(check int) "every torn write detected" 20 !detected

(* ---- the flat form against the capture's own datums ---- *)

(* LEB128, as the writer puts integers. *)
let put_varint buf n =
  let n = ref n in
  while !n < 0 || !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

(* [encode_noncanonical ~seed ~chunk_events c] encodes [c] as the
   writer would, except that every choice the format leaves open is
   drawn at random: a list's spine is split into segments, each an
   improper spine whose explicit tail continues the list; a proper list
   may end in an explicit nil; an atom, or nil, may be a degenerate
   spine of no cars; a string or symbol already defined may be defined
   inline again; a symbol may take its one-byte tag or a reference.
   The decoder must read every such stream as it reads the writer's. *)
let encode_noncanonical ~seed ~chunk_events c =
  let rng = Random.State.make [| seed |] in
  let coin () = Random.State.bool rng in
  let ids = Hashtbl.create 64 and next = ref 0 in
  let string_ref buf s =
    match Hashtbl.find_opt ids s with
    | Some id when coin () -> put_varint buf (1 + id)
    | _ ->
      if not (Hashtbl.mem ids s) then Hashtbl.replace ids s !next;
      incr next;
      put_varint buf 0;
      put_varint buf (String.length s);
      Buffer.add_string buf s
  in
  let rec datum buf (d : D.t) =
    match d with
    | Cons _ ->
      let rec spine cars (d : D.t) =
        match d with Cons (a, r) -> spine (a :: cars) r | tail -> (List.rev cars, tail)
      in
      let cars, tail = spine [] d in
      segments buf cars tail
    | atom when Random.State.int rng 8 = 0 ->
      (* a degenerate spine: no cars, the atom (or nil) as its tail *)
      if atom = D.Nil && coin () then Buffer.add_string buf "\x05\x00"
      else begin Buffer.add_string buf "\x06\x00"; atom_datum buf atom end
    | atom -> atom_datum buf atom
  and atom_datum buf (d : D.t) =
    match d with
    | Nil -> Buffer.add_char buf '\x00'
    | Sym s ->
      (match Hashtbl.find_opt ids s with
       | Some id when id <= 247 && coin () -> Buffer.add_char buf (Char.chr (8 + id))
       | _ -> Buffer.add_char buf '\x01'; string_ref buf s)
    | Int n -> Buffer.add_char buf '\x02'; put_varint buf ((n lsl 1) lxor (n asr 62))
    | Str s -> Buffer.add_char buf '\x03'; string_ref buf s
    | Cons _ -> assert false
  and segments buf cars tail =
    let n = List.length cars in
    let k = if coin () then n else 1 + Random.State.int rng n in
    let first = List.filteri (fun i _ -> i < k) cars
    and rest = List.filteri (fun i _ -> i >= k) cars in
    let head tag = Buffer.add_char buf tag; put_varint buf k; List.iter (datum buf) first in
    match rest, tail with
    | [], D.Nil -> if coin () then head '\x05' else begin head '\x06'; Buffer.add_char buf '\x00' end
    | [], tail -> head '\x06'; datum buf tail
    | rest, tail -> head '\x06'; segments buf rest tail
  in
  let event buf (e : E.t) =
    match e with
    | Call { name; nargs } -> Buffer.add_char buf '\x00'; string_ref buf name; put_varint buf nargs
    | Return { name } -> Buffer.add_char buf '\x01'; string_ref buf name
    | Prim { prim = p; args; result } ->
      Buffer.add_char buf
        (match p with Car -> '\x02' | Cdr -> '\x03' | Cons -> '\x04' | Rplaca -> '\x05'
                    | Rplacd -> '\x06');
      put_varint buf (List.length args);
      List.iter (datum buf) args;
      datum buf result
  in
  let structure = Buffer.create 256 and out = Buffer.create 4096 in
  Buffer.add_string structure B.magic;
  Buffer.add_string out B.magic;
  let rec chunks = function
    | [] -> ()
    | events ->
      let now = List.filteri (fun i _ -> i < chunk_events) events
      and later = List.filteri (fun i _ -> i >= chunk_events) events in
      let payload = Buffer.create 1024 in
      List.iter (event payload) now;
      let header = Buffer.create 16 in
      put_varint header (List.length now);
      put_varint header (Buffer.length payload);
      Buffer.add_string header (be64 (fnv64 (Buffer.contents payload)));
      Buffer.add_buffer structure header;
      Buffer.add_buffer out header;
      Buffer.add_buffer out payload;
      chunks later
  in
  chunks (Array.to_list (Trace.Capture.events c));
  Buffer.add_char structure '\x00';
  Buffer.add_char out '\x00';
  Buffer.contents out ^ "SMCK" ^ be64 (fnv64 (Buffer.contents structure))

(* Every field of the flat form [pre], decoded and checked against the
   events of [c] it came from: each code's kind, call arity, argument
   count, which arguments are lists, which of those equal the previous
   primitive's list result, and whether the result is a list; the
   reference stream's length and order; each id's (n, p) against the
   metrics of the datum it names, and each id naming one shape only;
   the statistics.  [None] when all hold, else the first mismatch. *)
let form_mismatch (pre : Trace.Preprocess.t) c =
  let module P = Trace.Preprocess in
  let events = Trace.Capture.events c in
  let shape = Hashtbl.create 64 in
  let r = ref 0 and prev = ref None in
  let fail fmt = Printf.ksprintf (fun m -> raise (Failure m)) fmt in
  let ref_to (d : D.t) =
    if !r >= P.ref_count pre then fail "reference stream too short";
    let id = P.ref_id pre !r in
    incr r;
    (match Hashtbl.find_opt shape id with
     | Some d' when not (D.equal d d') -> fail "id %d names two shapes" id
     | _ -> Hashtbl.replace shape id d);
    if (pre.np.(2 * id), pre.np.((2 * id) + 1)) <> Sexp.Metrics.np d then
      fail "id %d: (n, p) differs from its datum's" id
  in
  let is_list (d : D.t) = match d with Cons _ -> true | _ -> false in
  match
    if Array.length pre.codes <> Array.length events then fail "event count";
    Array.iteri
      (fun i (e : E.t) ->
         let code = pre.codes.(i) in
         match e with
         | Call { nargs; _ } ->
           if P.kind code <> 0 || P.call_nargs code <> nargs then fail "event %d: call" i
         | Return _ -> if P.kind code <> 1 then fail "event %d: return" i
         | Prim { prim = p; args; result } ->
           let kind = match p with Car -> 2 | Cdr -> 3 | Cons -> 4 | Rplaca -> 5 | Rplacd -> 6 in
           let n = List.length args in
           if P.kind code <> kind || P.arity code <> min n 255 || P.is_wide code <> (n > 24)
           then fail "event %d: kind or arity" i;
           let chained d =
             match !prev with Some pr -> is_list d && D.equal d pr | None -> false
           in
           let lists = List.filter is_list args in
           if P.list_args code <> List.length lists then fail "event %d: list count" i;
           if P.chained code <> List.exists chained args then fail "event %d: chaining" i;
           if not (P.is_wide code) then
             List.iteri
               (fun j d ->
                  if (P.list_mask code lsr j) land 1 = 1 <> is_list d
                  || (P.chained_mask code lsr j) land 1 = 1 <> chained d
                  then fail "event %d: argument %d" i j)
               args;
           if P.result_is_list code <> is_list result then fail "event %d: result" i;
           List.iter ref_to lists;
           if is_list result then ref_to result;
           prev := if is_list result then Some result else None)
      events;
    if !r <> P.ref_count pre then fail "reference stream too long";
    if pre.distinct_lists <> Array.length pre.np / 2 then fail "distinct lists";
    if pre.stats <> Trace.Capture.stats c then fail "statistics"
  with
  | () -> None
  | exception Failure m -> Some m

(* Random traces — small random events with wide primitives among them,
   and synthetic traces that intern more than 127 strings (multi-byte
   string references, symbols past the one-byte tags) and carry large
   ints (multi-byte varints), repeating each such list so it is also
   looked up, not only inserted — each encoded as the writer does and
   with random non-canonical choices. *)
let gen_wide_prim =
  QCheck.Gen.(
    map3
      (fun p args result -> prim p args result)
      (oneofl [ E.Car; E.Cdr; E.Cons; E.Rplaca; E.Rplacd ])
      (list_size (int_range 20 30) gen_datum)
      gen_datum)

(* [widen ~extra ~big synth] puts, [extra] times evenly through the
   events of [synth], a call whose body conses and reads a list of a
   symbol, large ints (multi-byte varints) and a fresh string. *)
let widen ~extra ~big synth =
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
       (List.mapi (fun j e -> if j mod every = 0 then e :: wide (j / every) else [ e ]) events))

let gen_wide_trace =
  QCheck.Gen.(
    map3
      (fun (length, seed) extra big ->
         widen ~extra ~big (Trace.Synth.generate { Trace.Synth.default with length; seed }))
      (pair (int_range 200 1500) (int_range 0 1000))
      (int_range 130 300)
      (oneofl [ 1 lsl 20; 1 lsl 40; max_int / 2; min_int / 2 ]))

let prop_run_source_matches_run =
  QCheck.Test.make ~name:"run_source = run . capture" ~count:80
    (QCheck.make
       QCheck.Gen.(
         triple
           (frequency
              [ (3,
                 map mk_capture
                   (list_size (int_range 0 60)
                      (frequency [ (12, gen_event); (1, gen_wide_prim) ])));
                (1, gen_wide_trace) ])
           (int_range 1 512) (option (int_range 0 1_000_000))))
    (fun (c, chunk_events, noncanonical) ->
      let data =
        match noncanonical with
        | None -> encode ~chunk_events c
        | Some seed -> encode_noncanonical ~seed ~chunk_events c
      in
      let oracle = Trace.Preprocess.run c in
      let scanned = Trace.Preprocess.run_source (B.source_of_string data) in
      let check what = function
        | None -> true
        | Some m -> QCheck.Test.fail_reportf "%s: %s" what m
      in
      captures_equal c (B.capture_of_source (B.source_of_string data))
      && check "run" (form_mismatch oracle c)
      && check "run_source" (form_mismatch scanned c)
      && oracle = scanned)

(* The kernel's view of a scanned wide trace: packing the scanned form
   (what a dedicated packing scanner once produced, hence the name) is
   packing [run] of the capture, and replays the same. *)
let prop_scanners_match_oracles =
  QCheck.Test.make ~name:"pack_source = pack . run, run_source = run (wide traces)"
    ~count:25 (QCheck.make gen_wide_trace)
    (fun c ->
      let data = encode ~chunk_events:512 c in
      let oracle = Trace.Preprocess.run c in
      let scanned = Trace.Preprocess.run_source (B.source_of_string data) in
      let p = Core.Simulator.pack oracle and p' = Core.Simulator.pack scanned in
      let cfg = { Core.Simulator.default_config with table_size = 256; seed = 5 } in
      oracle = scanned
      && compare p p' = 0
      && Core.Simulator.run_packed cfg p = Core.Simulator.run_packed cfg p')

(* ---- preprocessing determinism ---- *)

let test_run_source_matches_run_synth () =
  let check label c =
    let data = encode ~chunk_events:256 c in
    Alcotest.(check bool) label true
      (Trace.Preprocess.run c = Trace.Preprocess.run_source (B.source_of_string data))
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

(* ---- golden forms ---- *)

(* The MD5 of every field of a flat form, read through its accessors:
   the codes, the reference stream, the (n, p) table, the distinct
   list count and the statistics. *)
let form_digest (f : Trace.Preprocess.t) =
  let b = Buffer.create 65536 in
  let ints a =
    Array.iter (fun x -> Printf.bprintf b "%d," x) a;
    Buffer.add_char b '|'
  in
  ints f.codes;
  ints (Array.init (Trace.Preprocess.ref_count f) (Trace.Preprocess.ref_id f));
  ints f.np;
  let s = f.stats in
  ints [| f.distinct_lists; s.functions; s.primitives; s.max_depth |];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Forms recorded before the token layout last changed: the synthetic
   trace at 20k primitives, the edge-chunking trace at both extremes of
   chunking, and a trace with large ints, interned strings past the
   one-byte tags and 30-argument primitives.  Both producers must give
   exactly these. *)
let test_golden_forms () =
  let wide =
    let base = widen ~extra:150 ~big:(1 lsl 40)
        (Trace.Synth.generate { Trace.Synth.default with length = 1000; seed = 3 }) in
    let l k = D.list [ D.int (k mod 7); D.sym "w"; D.int (max_int - k) ] in
    let thirty k = List.init 30 (fun j -> if j mod 3 = 0 then D.int (j + k) else l (j + k)) in
    mk_capture
      (List.concat
         (List.mapi
            (fun j e ->
               if j mod 40 = 0 then [ e; prim E.Rplaca (thirty j) (l j) ] else [ e ])
            (Array.to_list (Trace.Capture.events base))))
  in
  let edge = Trace.Synth.generate { Trace.Synth.default with length = 64; seed = 11 } in
  List.iter
    (fun (label, c, chunkings, want) ->
       Alcotest.(check string) (label ^ ": run") want (form_digest (Trace.Preprocess.run c));
       List.iter
         (fun chunk_events ->
            Alcotest.(check string)
              (Printf.sprintf "%s: run_source, %d-event chunks" label chunk_events)
              want
              (form_digest
                 (Trace.Preprocess.run_source (B.source_of_string (encode ~chunk_events c)))))
         chunkings)
    [ ("synth 20k", Trace.Synth.generate { Trace.Synth.default with length = 20_000 },
       [ 4096 ], "d8dd5308e4a2e5f74ddcf7ea197f009a");
      ("edge chunking", edge, [ 1; 4096 ], "88040c0918b7889a8e6a200d95c1bc68");
      ("wide", wide, [ 512 ], "70eb0e0a85f1256f3f878684a7219e48") ]

(* Ints at the ends of the int range and around 2^59 inside list
   arguments: lists that differ only in such an int keep distinct
   identities, and each list used twice keeps its one id. *)
let test_extreme_ints () =
  let values =
    List.concat_map
      (fun v -> [ v; v lxor (1 lsl 60); v lxor (1 lsl 61); v lxor min_int ])
      [ 0; 1; -1; 1 lsl 59; -(1 lsl 59); (1 lsl 59) - 1; -(1 lsl 59) - 1; max_int;
        min_int; 5 ]
    |> List.sort_uniq compare
  in
  let lists = List.map (fun v -> D.list [ D.int v; D.int (v asr 3) ]) values in
  let c = mk_capture (List.concat_map (fun l -> [ prim E.Car [ l ] D.nil ]) (lists @ lists)) in
  let pre = Trace.Preprocess.run_source (B.source_of_string (encode ~chunk_events:7 c)) in
  Alcotest.(check int) "one id per distinct list" (List.length values) pre.distinct_lists;
  Alcotest.(check bool) "run_source = run . capture" true (pre = Trace.Preprocess.run c);
  Alcotest.(check (option string)) "every field checks" None (form_mismatch pre c)

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
      let n, p =
        match Trace.Capture.events (B.capture_of_source (src ())) with
        | [| E.Prim { result; _ } |] -> Sexp.Metrics.np result
        | _ -> QCheck.Test.fail_report "one event expected"
      in
      let pre = Trace.Preprocess.run_source (src ()) in
      pre.Trace.Preprocess.np = [| n; p; n; p |] && (n, p) = Sexp.Metrics.np d)

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
    (fun (label, datum_bytes, (n, p)) ->
       (* cons with no arguments, the hand-built datum as its result *)
       let data = framed ~count:1 ("\x04\x00" ^ datum_bytes) in
       let pre = Trace.Preprocess.run_source (B.source_of_string data) in
       Alcotest.(check (array int)) (label ^ ": token (n, p)")
         [| n; p |] pre.Trace.Preprocess.np;
       let oracle = Trace.Preprocess.run (B.capture_of_source (B.source_of_string data)) in
       Alcotest.(check bool) (label ^ ": run_source = run . capture") true (oracle = pre))
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
         (oracle = Trace.Preprocess.run_source (src ())))
    [ (* (1 . (2 3)) = (1 2 3) *)
      ("list tail", canonical, "\x06\x01\x02\x02\x05\x02\x02\x04\x02\x06");
      (* (1 2 3 . ()) = (1 2 3) *)
      ("nil tail", canonical, "\x06\x03\x02\x02\x02\x04\x02\x06\x00");
      (* (foo) with "foo" defined inline in both events *)
      ("string defined twice", "\x05\x01\x01\x00\x03foo", "\x05\x01\x01\x00\x03foo") ]

(* ---- working memory kept between jobs ---- *)

(* The flat form of a file read through the scoped entry point, always
   scanned: these tests are about the scan's own kept storage, which a
   form memo hit would not touch. *)
let scoped_form path =
  Trace.Io.with_path path (fun _ loaded ->
      match loaded with
      | Trace.Io.Binary_source src -> Trace.Preprocess.scan src
      | Trace.Io.Sexp_capture c -> Trace.Preprocess.run c)

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
    Alcotest.(check bool) label true (scoped_form path = Trace.Preprocess.run c)
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
      match scoped_form dp with
      | _ -> Alcotest.fail "a damaged chunk was accepted"
      | exception Trace.Io.Corrupt { reason; _ } ->
        Alcotest.(check string) "fails mid-scan" "chunk checksum mismatch" reason);
  check "small after a failed scan" sp small;
  check "large after a failed scan" lp large;
  (* a car whose list argument ends after its first car *)
  with_temp_trace (framed ~count:1 "\x02\x01\x05\x02\x02\x02\x01") (fun dp ->
      match scoped_form dp with
      | _ -> Alcotest.fail "a truncated datum was accepted"
      | exception Trace.Io.Corrupt { reason; _ } ->
        Alcotest.(check string) "fails mid-datum" "string ref: varint past end" reason);
  check "a list used twice, after a mid-datum failure" tp twice

(* A scan of one file inside another file's scoped read, whose kept
   buffer is then in use, reads into a buffer of its own: both results
   are exact. *)
let test_nested_scan () =
  let outer = Trace.Synth.generate { Trace.Synth.default with length = 4000; seed = 7 } in
  let inner = Trace.Synth.generate { Trace.Synth.default with length = 3000; seed = 8 } in
  with_trace_files [ outer; inner ] @@ fun paths ->
  let op, ip = match paths with [ o; i ] -> (o, i) | _ -> assert false in
  let nested = ref None in
  let form =
    Trace.Io.with_path op (fun _ loaded ->
        let src = binary op loaded in
        nested := Some (scoped_form ip);
        Trace.Preprocess.scan src)
  in
  Alcotest.(check bool) "outer scan exact" true (form = Trace.Preprocess.run outer);
  Alcotest.(check bool) "nested scan exact" true
    (!nested = Some (Trace.Preprocess.run inner))

(* Two domains, each with its own kept memory, scanning different
   traces in turn. *)
let test_two_domains () =
  let a = Trace.Synth.generate { Trace.Synth.default with length = 5000; seed = 9 } in
  let b = Trace.Synth.generate { Trace.Synth.default with length = 2000; seed = 10 } in
  with_trace_files [ a; b ] @@ fun paths ->
  let work = List.combine paths [ Trace.Preprocess.run a; Trace.Preprocess.run b ] in
  let worker order () =
    List.for_all (fun i -> let p, want = List.nth work i in scoped_form p = want) order
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
  let escape f = Trace.Io.with_path path (fun _ loaded -> f (binary path loaded)) in
  let refused label f =
    match f () with
    | _ -> Alcotest.failf "%s: used after its scope" label
    | exception Invalid_argument _ -> ()
  in
  let src = escape Fun.id in
  refused "source_length" (fun () -> B.source_length src);
  refused "iter_batches" (fun () -> B.iter_batches src ignore);
  refused "run_source" (fun () -> Trace.Preprocess.run_source src);
  refused "scan" (fun () -> Trace.Preprocess.scan src);
  let r = escape B.read_source in
  refused "next_batch" (fun () -> B.next_batch r)

(* The every-byte flip and truncation battery through the scoped read,
   all in one domain, so each case starts on the memory the last one
   (clean, damaged or failed) left behind. *)
let test_scoped_flip_and_cut () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 80; seed = 3 } in
  let data = encode c in
  let want = Trace.Preprocess.run c in
  let path = Filename.temp_file "scopedfuzz" ".smtb" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let check label mutated =
    write_file path mutated;
    match
      Trace.Io.with_path path (fun _ loaded -> Trace.Preprocess.scan (binary label loaded))
    with
    | r -> if r <> want then Alcotest.failf "%s: scan: silent misread" label
    | exception Trace.Io.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: scan raised %s" label (Printexc.to_string e)
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

(* ---- the form memo ---- *)

module Memo = Trace.Preprocess.Memo

let memo_data ~seed ~length =
  encode ~chunk_events:16 (Trace.Synth.generate { Trace.Synth.default with length; seed })

(* Equal bytes in two buffers: one scan, and both calls get the one
   form it built. *)
let test_memo_equal_bytes () =
  let data = memo_data ~seed:21 ~length:2000 in
  let before = Memo.stats Trace.Preprocess.memo in
  let first = Trace.Preprocess.run_source (B.source_of_string data) in
  let second = Trace.Preprocess.run_source (B.source_of_string data) in
  let after = Memo.stats Trace.Preprocess.memo in
  Alcotest.(check bool) "physically the same form" true (first == second);
  Alcotest.(check bool) "scan's form" true (first = Trace.Preprocess.scan (B.source_of_string data));
  Alcotest.(check (pair int int)) "one miss, then one hit" (1, 1)
    (after.misses - before.misses, after.hits - before.hits)

(* After a memoised success, every one-byte flip — in the magic, every
   chunk header and payload, and the trailer — raises or is scanned
   afresh: the kept form never answers for other bytes. *)
let test_memo_flips () =
  let data = memo_data ~seed:22 ~length:300 in
  let kept = Trace.Preprocess.run_source (B.source_of_string data) in
  for pos = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    let flipped = Bytes.to_string b in
    match Trace.Preprocess.run_source (B.source_of_string flipped) with
    | r ->
      if r == kept then Alcotest.failf "flip at %d: answered by the kept form" pos;
      if r <> Trace.Preprocess.scan (B.source_of_string flipped) then
        Alcotest.failf "flip at %d: not scan's form of the flipped bytes" pos
    | exception B.Corrupt _ -> ()
  done;
  Alcotest.(check bool) "the clean bytes still hit" true
    (Trace.Preprocess.run_source (B.source_of_string data) == kept)

(* A memo whose cap holds any two of three entries but not all three:
   the least recently used goes, the kept bytes never pass the cap, and
   a source whose entry alone passes a cap is never kept. *)
let test_memo_cap () =
  let src seed = B.source_of_string (memo_data ~seed ~length:1500) in
  let cost seed =
    let m = Memo.create ~cap:max_int in
    ignore (Memo.run m (src seed));
    (Memo.stats m).kept_bytes
  in
  let a, b, c = (41, 42, 43) in
  let cap = cost a + cost b + cost c - 1 in
  let m = Memo.create ~cap in
  let run label seed ~hit =
    let before = Memo.stats m in
    let form = Memo.run m (src seed) in
    let after = Memo.stats m in
    Alcotest.(check bool) (label ^ ": scan's form") true (form = Trace.Preprocess.scan (src seed));
    Alcotest.(check bool) (label ^ (if hit then ": a hit" else ": a miss")) true
      (if hit then after.hits = before.hits + 1 else after.misses = before.misses + 1);
    Alcotest.(check bool) (label ^ ": within the cap") true (after.kept_bytes <= cap)
  in
  run "a" a ~hit:false;
  run "b" b ~hit:false;
  run "a again" a ~hit:true;
  run "c evicts b, the least recently used" c ~hit:false;
  Alcotest.(check int) "two entries" 2 (Memo.stats m).entries;
  run "a survives" a ~hit:true;
  run "b was evicted" b ~hit:false;
  run "c was evicted in its turn" c ~hit:false;
  let small = Memo.create ~cap:(cost a - 1) in
  ignore (Memo.run small (src a));
  ignore (Memo.run small (src a));
  let st = Memo.stats small in
  Alcotest.(check (list int)) "an entry past the cap is never kept" [ 2; 0; 0; 0 ]
    [ st.misses; st.hits; st.entries; st.kept_bytes ]

(* Domains that scan the same bytes at once keep one entry, and every
   one of them returns its form. *)
let test_memo_domains () =
  let data = memo_data ~seed:51 ~length:3000 in
  let m = Memo.create ~cap:Trace.Preprocess.memo_cap in
  let n = 4 in
  let ready = Atomic.make 0 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            let src = B.source_of_string data in
            Atomic.incr ready;
            while Atomic.get ready < n do Domain.cpu_relax () done;
            Memo.run m src))
  in
  let forms = List.map Domain.join domains in
  let st = Memo.stats m in
  Alcotest.(check int) "one entry" 1 st.entries;
  Alcotest.(check int) "every call counted" n (st.hits + st.misses);
  Alcotest.(check bool) "one form for all" true (List.for_all (( == ) (List.hd forms)) forms);
  Alcotest.(check bool) "scan's form" true
    (List.hd forms = Trace.Preprocess.scan (B.source_of_string data))

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

(* The primitive mix off both producers' forms, and counted off the
   capture's events. *)
let test_prim_mix_parity () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 3000; seed = 8 } in
  let data = encode c in
  let m1 = Analysis.Prim_mix.analyze (Trace.Preprocess.run c) in
  let m2 = Analysis.Prim_mix.analyze (Trace.Preprocess.run_source (B.source_of_string data)) in
  let counted p =
    Array.fold_left
      (fun n (e : E.t) -> match e with Prim { prim; _ } when prim = p -> n + 1 | _ -> n)
      0 (Trace.Capture.events c)
  in
  Alcotest.(check bool) "run form = scanned form" true (m1 = m2);
  Alcotest.(check bool) "counts = the capture's" true
    (m1.Analysis.Prim_mix.counts = List.map (fun p -> (p, counted p)) E.all_prims
     && m1.Analysis.Prim_mix.total = (Trace.Capture.stats c).Trace.Capture.primitives)

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
         Alcotest.test_case "canonical tokens" `Quick test_canonical_tokens;
         Alcotest.test_case "golden forms" `Quick test_golden_forms;
         Alcotest.test_case "extreme ints keep their identities" `Quick test_extreme_ints ]);
      ("kept memory",
       [ Alcotest.test_case "large, small, failed, again" `Quick test_reuse_sequence;
         Alcotest.test_case "nested scan" `Quick test_nested_scan;
         Alcotest.test_case "two domains" `Quick test_two_domains;
         Alcotest.test_case "use after scope" `Quick test_use_after_scope;
         Alcotest.test_case "scoped: every flip and cut" `Quick test_scoped_flip_and_cut ]);
      ("form memo",
       [ Alcotest.test_case "equal bytes, one form" `Quick test_memo_equal_bytes;
         Alcotest.test_case "every flip misses" `Quick test_memo_flips;
         Alcotest.test_case "byte cap, least recently used out" `Quick test_memo_cap;
         Alcotest.test_case "concurrent scans keep one entry" `Quick test_memo_domains ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_readers_equivalent;
         QCheck_alcotest.to_alcotest prop_mapped_fuzz_corruption;
         QCheck_alcotest.to_alcotest prop_run_source_matches_run;
         QCheck_alcotest.to_alcotest prop_scanners_match_oracles;
         QCheck_alcotest.to_alcotest prop_token_np ]) ]
