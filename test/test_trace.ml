(* Tests for the trace substrate: capture statistics, serialisation
   round-trips, the §5.2.1 preprocessing (unique ids + chaining flags) and
   the synthetic generator. *)

module D = Sexp.Datum
module E = Trace.Event

let mk_capture events =
  let c = Trace.Capture.create () in
  List.iter (Trace.Capture.record c) events;
  c

let prim p args result = E.Prim { prim = p; args; result }

let test_stats () =
  let c =
    mk_capture
      [ E.Call { name = "f"; nargs = 1 };
        prim E.Car [ Sexp.parse "(a b)" ] (D.sym "a");
        E.Call { name = "g"; nargs = 2 };
        prim E.Cdr [ Sexp.parse "(a b)" ] (Sexp.parse "(b)");
        E.Return { name = "g" };
        E.Return { name = "f" } ]
  in
  let st = Trace.Capture.stats c in
  Alcotest.(check int) "functions" 2 st.Trace.Capture.functions;
  Alcotest.(check int) "primitives" 2 st.Trace.Capture.primitives;
  Alcotest.(check int) "max depth" 2 st.Trace.Capture.max_depth

let test_capture_growth () =
  let c = Trace.Capture.create () in
  for i = 1 to 5000 do
    Trace.Capture.record c (prim E.Cons [ D.int i ] (D.list [ D.int i ]))
  done;
  Alcotest.(check int) "all recorded" 5000 (Trace.Capture.length c)

let test_io_roundtrip () =
  let c =
    mk_capture
      [ E.Call { name = "f"; nargs = 1 };
        prim E.Cons [ D.sym "a"; Sexp.parse "(b)" ] (Sexp.parse "(a b)");
        prim E.Rplaca [ Sexp.parse "(a b)"; D.int 3 ] (Sexp.parse "(3 b)");
        E.Return { name = "f" } ]
  in
  let path = Filename.temp_file "trace" ".txt" in
  Trace.Io.save path c;
  let c' = Trace.Io.load path in
  Sys.remove path;
  Alcotest.(check int) "same length" (Trace.Capture.length c) (Trace.Capture.length c');
  Array.iteri
    (fun i e ->
       let d1 = Trace.Io.event_to_datum e in
       let d2 = Trace.Io.event_to_datum (Trace.Capture.events c').(i) in
       Alcotest.(check bool) (Printf.sprintf "event %d" i) true (D.equal d1 d2))
    (Trace.Capture.events c)

let test_io_rejects_malformed () =
  Alcotest.check_raises "bad event"
    (Invalid_argument "Trace.Io: malformed event") (fun () ->
      ignore (Trace.Io.event_of_datum (Sexp.parse "(x y)")))

(* ---- binary format ---- *)

let captures_equal c c' =
  Trace.Capture.length c = Trace.Capture.length c'
  && Array.for_all2
       (fun a b -> D.equal (Trace.Io.event_to_datum a) (Trace.Io.event_to_datum b))
       (Trace.Capture.events c) (Trace.Capture.events c')

let test_binary_roundtrip_synth () =
  (* a real-sized stream through small chunks, so the intern table is
     exercised across many chunk boundaries *)
  let c = Trace.Synth.generate { Trace.Synth.default with length = 3000 } in
  let path = Filename.temp_file "trace" ".smtb" in
  let oc = open_out_bin path in
  let w = Trace.Binary.writer ~chunk_events:100 oc in
  Array.iter (Trace.Binary.write_event w) (Trace.Capture.events c);
  Trace.Binary.close_writer w;
  close_out oc;
  let c' = Trace.Io.load path in
  Sys.remove path;
  Alcotest.(check bool) "multi-chunk round-trip" true (captures_equal c c')

let test_binary_edge_datums () =
  let c =
    mk_capture
      [ E.Call { name = "Weird Name"; nargs = 0 };
        prim E.Cons [ D.int (-1); D.str "with \"quotes\" and \n" ]
          (D.cons (D.int max_int) (D.int min_int));
        (* improper spine and deep nesting *)
        prim E.Car [ Sexp.parse "((a . b) (c d . e))" ] (Sexp.parse "(a . b)");
        prim E.Cdr [ D.Nil ] D.Nil;
        prim E.Rplacd [ Sexp.parse "(((((x)))))"; D.sym "y" ] (Sexp.parse "(((((x)))))");
        E.Return { name = "Weird Name" } ]
  in
  let path = Filename.temp_file "trace" ".smtb" in
  Trace.Io.save ~format:Trace.Io.Binary path c;
  let c' = Trace.Io.load path in
  Sys.remove path;
  Alcotest.(check int) "length" (Trace.Capture.length c) (Trace.Capture.length c');
  Array.iteri
    (fun i e ->
       Alcotest.(check bool) (Printf.sprintf "event %d" i) true
         (e = (Trace.Capture.events c').(i)))
    (Trace.Capture.events c)

let test_binary_digest () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 200 } in
  let c2 = Trace.Synth.generate { Trace.Synth.default with length = 200 } in
  Alcotest.(check string) "equal captures digest alike"
    (Trace.Binary.digest c) (Trace.Binary.digest c2);
  Trace.Capture.record c2 (prim E.Car [ Sexp.parse "(z)" ] (D.sym "z"));
  Alcotest.(check bool) "an extra event changes the digest" true
    (Trace.Binary.digest c <> Trace.Binary.digest c2)

let test_binary_rejects_corrupt () =
  let path = Filename.temp_file "trace" ".smtb" in
  let rejects contents =
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    match Trace.Io.load path with
    | _ -> None
    | exception Trace.Io.Corrupt { path = p; offset; reason } ->
      if p = path && offset >= 0 then Some reason else None
  in
  (* 5 events claimed, 3 payload bytes *)
  let garbage = rejects (Trace.Binary.magic ^ "\x05\x03garbage") in
  (* a hand-built revision-1 stream (one chunk holding one car event,
     no per-chunk sum, the end marker): routed to the binary reader and
     refused there, not misparsed as sexp lines *)
  let v1 = rejects "SMTB\x01\n\x01\x03\x02\x00\x00\x00" in
  Sys.remove path;
  Alcotest.(check bool) "corrupt stream rejected with typed error" true
    (match garbage with Some r -> r <> "" | None -> false);
  Alcotest.(check (option string)) "v1 stream rejected with typed error"
    (Some "unsupported binary trace version") v1

(* Satellite: a valid binary trace truncated at EVERY byte boundary must
   load as Corrupt — never crash, hang, or silently yield a trace. *)
let test_binary_truncation_everywhere () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 120; seed = 9 } in
  let data = Trace.Binary.to_string c in
  let dir = Filename.temp_file "tracetrunc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "t.smtb" in
  for cut = 0 to String.length data - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub data 0 cut);
    close_out oc;
    match Trace.Io.load path with
    | c' ->
      (* the one legal silent load: the empty prefix (sexp format, zero
         events); the trailer is mandatory, so even the cut that strips
         exactly the trailer is corrupt *)
      if cut = 0 then
        Alcotest.(check int) "empty prefix loads as empty sexp trace"
          0 (Trace.Capture.length c')
      else Alcotest.failf "truncation at %d/%d loaded silently" cut (String.length data)
    | exception Trace.Io.Corrupt { path = p; offset = _; reason = _ } ->
      Alcotest.(check string) "corrupt error names the file" path p
  done;
  Sys.remove path;
  Sys.rmdir dir

let test_sexp_corrupt_offsets () =
  let path = Filename.temp_file "trace" ".trace" in
  let oc = open_out_bin path in
  output_string oc "(c f 1)\n(((\n";
  close_out oc;
  (match Trace.Io.load path with
   | _ -> Alcotest.fail "garbage line accepted"
   | exception Trace.Io.Corrupt { offset; _ } ->
     Alcotest.(check int) "offset points at the bad line" 8 offset);
  let oc = open_out_bin path in
  output_string oc "(c f 1)\n(x y)\n";
  close_out oc;
  (match Trace.Io.load path with
   | _ -> Alcotest.fail "malformed event accepted"
   | exception Trace.Io.Corrupt { offset; _ } ->
     Alcotest.(check int) "offset points at the bad event" 8 offset);
  Sys.remove path

let test_binary_checksum_catches_bitflip () =
  let c = Trace.Synth.generate { Trace.Synth.default with length = 80; seed = 3 } in
  let data = Trace.Binary.to_string c in
  let path = Filename.temp_file "trace" ".smtb" in
  let caught = ref 0 and clean = ref 0 in
  for pos = String.length Trace.Binary.magic to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc;
    match Trace.Io.load path with
    | _ -> incr clean
    | exception Trace.Io.Corrupt _ -> incr caught
  done;
  Sys.remove path;
  (* with the checksum trailer, every single-bit flip must be caught *)
  Alcotest.(check int) "every bit-flip detected" 0 !clean;
  Alcotest.(check bool) "some flips exercised" true (!caught > 0)

let test_save_is_atomic () =
  let dir = Filename.temp_file "tracedir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "t.trace" in
  let c = mk_capture [ prim E.Car [ Sexp.parse "(a)" ] (D.sym "a") ] in
  Trace.Io.save path c;
  let c2 = mk_capture [ prim E.Cdr [ Sexp.parse "(a b)" ] (Sexp.parse "(b)") ] in
  Trace.Io.save ~format:Trace.Io.Binary path c2;   (* overwrite in place *)
  Alcotest.(check bool) "overwritten content wins" true
    (captures_equal c2 (Trace.Io.load path));
  Alcotest.(check (list string)) "no temp files left behind" [ "t.trace" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  Sys.remove path;
  Sys.rmdir dir

(* A torn write lands a strict prefix of what the untorn save writes;
   an empty capture has no prefix shorter than itself, so it lands as an
   empty file, never extended. *)
let test_torn_empty_save () =
  let empty = Trace.Capture.create () in
  let size path = (Unix.stat path).Unix.st_size in
  let path = Filename.temp_file "empty" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.Io.save path empty;
  let untorn = size path in
  let fault =
    Fault.Plan.create { Fault.Plan.default with torn_write = 1.0 }
  in
  Trace.Io.save ~fault path empty;
  Alcotest.(check int) "a torn write was drawn" 1 (Fault.Plan.total fault);
  Alcotest.(check bool)
    (Printf.sprintf "torn file (%d bytes) no longer than the untorn one (%d)"
       (size path) untorn)
    true (size path <= untorn)

(* ---- preprocessing ---- *)

module P = Trace.Preprocess

(* Event [i]'s list argument ids, read through the flat form: its
   share of the reference stream, after every earlier primitive's. *)
let list_arg_ids (p : P.t) i =
  let r = ref 0 in
  for e = 0 to i - 1 do
    let code = p.codes.(e) in
    if P.kind code >= 2 then
      r := !r + P.list_args code + if P.result_is_list code then 1 else 0
  done;
  List.init (P.list_args p.codes.(i)) (fun j -> P.ref_id p (!r + j))

(* Whether event [i] is a primitive of one argument, a list, chained or
   not. *)
let single_list_arg (p : P.t) i =
  let code = p.codes.(i) in
  if P.kind code >= 2 && P.arity code = 1 && P.list_mask code = 1 then
    Some (P.chained_mask code = 1)
  else None

let test_preprocess_ids () =
  let l1 = Sexp.parse "(a b)" and l2 = Sexp.parse "(c d)" in
  let c =
    mk_capture
      [ prim E.Car [ l1 ] (D.sym "a");
        prim E.Car [ l2 ] (D.sym "c");
        prim E.Cdr [ l1 ] (Sexp.parse "(b)") ]
  in
  let p = Trace.Preprocess.run c in
  Alcotest.(check int) "distinct lists: (a b), (c d), (b)" 3 p.Trace.Preprocess.distinct_lists;
  (* first and third events reference the same id *)
  let id_of_event i =
    match single_list_arg p i, list_arg_ids p i with
    | Some _, [ id ] -> id
    | _ -> Alcotest.fail "expected a single list arg"
  in
  Alcotest.(check int) "structurally equal args share ids" (id_of_event 0) (id_of_event 2);
  Alcotest.(check bool) "different lists get different ids" true
    (id_of_event 0 <> id_of_event 1)

let test_preprocess_chaining () =
  let l = Sexp.parse "(a b c)" in
  let tail = Sexp.parse "(b c)" in
  let c =
    mk_capture
      [ prim E.Cdr [ l ] tail;
        (* chained: argument = previous result *)
        prim E.Car [ tail ] (D.sym "b");
        (* not chained: argument repeats the first list *)
        prim E.Car [ l ] (D.sym "a") ]
  in
  let p = Trace.Preprocess.run c in
  let chained_of i =
    match single_list_arg p i with
    | Some chained -> chained
    | None -> Alcotest.fail "expected list arg"
  in
  Alcotest.(check bool) "second event chained" true (chained_of 1);
  Alcotest.(check bool) "third event not chained" false (chained_of 2)

let test_preprocess_chaining_across_calls () =
  (* function call/return events between two prims do not break chaining
     (§3.3.2.3: no pointer creation happens in between) *)
  let l = Sexp.parse "(a b)" and tail = Sexp.parse "(b)" in
  let c =
    mk_capture
      [ prim E.Cdr [ l ] tail;
        E.Call { name = "f"; nargs = 1 };
        prim E.Car [ tail ] (D.sym "b") ]
  in
  let p = Trace.Preprocess.run c in
  (match single_list_arg p 2 with
   | Some chained -> Alcotest.(check bool) "chained across the call" true chained
   | None -> Alcotest.fail "expected list arg")

let test_preprocess_atoms () =
  let c = mk_capture [ prim E.Cons [ D.int 1; Sexp.parse "(2)" ] (Sexp.parse "(1 2)") ] in
  let p = Trace.Preprocess.run c in
  (* (cons 1 '(2)): argument 0 an atom, argument 1 and the result lists *)
  let code = p.codes.(0) in
  if not (P.arity code = 2 && P.list_mask code = 2 && P.result_is_list code) then
    Alcotest.fail "atom argument must stay an atom";
  Alcotest.(check int) "np table sized by distinct lists"
    p.distinct_lists
    (Array.length p.np / 2)

let test_prim_refs () =
  let l = Sexp.parse "(a b)" in
  let c =
    mk_capture
      [ prim E.Cdr [ l ] (Sexp.parse "(b)");
        E.Call { name = "f"; nargs = 0 };
        prim E.Cons [ D.int 1; l ] (D.cons (D.int 1) l) ]
  in
  let p = Trace.Preprocess.run c in
  (* cdr: arg + list result = 2; cons: 1 list arg + result = 2 *)
  Alcotest.(check int) "reference stream length" 4 (P.ref_count p)

(* ---- synthetic generator ---- *)

let test_synth_deterministic () =
  let cfg = { Trace.Synth.default with length = 500 } in
  let a = Trace.Synth.generate cfg and b = Trace.Synth.generate cfg in
  Alcotest.(check int) "same length" (Trace.Capture.length a) (Trace.Capture.length b);
  let da = Array.map Trace.Io.event_to_datum (Trace.Capture.events a) in
  let db = Array.map Trace.Io.event_to_datum (Trace.Capture.events b) in
  Alcotest.(check bool) "identical streams from one seed" true
    (Array.for_all2 D.equal da db)

let test_synth_valid_semantics () =
  (* every car/cdr event's result must actually be the car/cdr of its
     argument *)
  let cap = Trace.Synth.generate { Trace.Synth.default with length = 2000 } in
  Array.iter
    (fun (e : E.t) ->
       match e with
       | E.Prim { prim = E.Car; args = [ a ]; result } ->
         Alcotest.(check bool) "car semantics" true (D.equal result (D.car a))
       | E.Prim { prim = E.Cdr; args = [ a ]; result } ->
         Alcotest.(check bool) "cdr semantics" true (D.equal result (D.cdr a))
       | E.Prim { prim = E.Cons; args = [ a; d ]; result } ->
         Alcotest.(check bool) "cons semantics" true (D.equal result (D.cons a d))
       | _ -> ())
    (Trace.Capture.events cap)

let test_synth_balanced_calls () =
  let cap = Trace.Synth.generate { Trace.Synth.default with length = 3000 } in
  let depth = ref 0 in
  Array.iter
    (fun (e : E.t) ->
       match e with
       | E.Call _ -> incr depth
       | E.Return _ ->
         decr depth;
         Alcotest.(check bool) "never returns below zero" true (!depth >= 0)
       | E.Prim _ -> ())
    (Trace.Capture.events cap);
  Alcotest.(check int) "calls balanced at end" 0 !depth

let test_synth_mix_profiles () =
  let share prim cfg =
    let mix =
      Analysis.Prim_mix.analyze
        (Trace.Preprocess.run (Trace.Synth.generate { cfg with Trace.Synth.length = 4000 }))
    in
    Analysis.Prim_mix.pct mix prim
  in
  Alcotest.(check bool) "cons-heavy profile really is" true
    (share E.Cons Trace.Synth.cons_heavy > share E.Cons Trace.Synth.default +. 5.);
  Alcotest.(check bool) "rplac-heavy profile really is" true
    (share E.Rplaca Trace.Synth.rplac_heavy +. share E.Rplacd Trace.Synth.rplac_heavy
     > 20.)

let prop_io_roundtrip =
  QCheck.Test.make ~name:"io event datum round-trip" ~count:100
    (QCheck.make
       (QCheck.Gen.oneof
          [ QCheck.Gen.return (E.Call { name = "fn"; nargs = 2 });
            QCheck.Gen.return (E.Return { name = "fn" });
            QCheck.Gen.map
              (fun n -> prim E.Cons [ D.int n; Sexp.parse "(x)" ] (D.list [ D.int n; D.sym "x" ]))
              (QCheck.Gen.int_range 0 100) ]))
    (fun e ->
      let d = Trace.Io.event_to_datum e in
      D.equal d (Trace.Io.event_to_datum (Trace.Io.event_of_datum d)))

(* Random event streams: [Binary.write . Binary.read = id], cross-checked
   against the sexp-lines codec over the same capture.  Atoms are kept
   inside what the sexp reader round-trips exactly (lower-case symbols,
   ints, nil), so both codecs must agree with the original and with each
   other. *)
let gen_datum =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let atom =
          oneof
            [ return D.Nil;
              map D.int (int_range (-1000) 1000);
              map D.sym (oneofl [ "a"; "b"; "x"; "longer-symbol" ]) ]
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

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"binary round-trip matches sexp codec" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_event))
    (fun events ->
      let c = mk_capture events in
      let via format suffix =
        let path = Filename.temp_file "trace" suffix in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
             Trace.Io.save ~format path c;
             Trace.Io.load path)
      in
      let b = via Trace.Io.Binary ".smtb" in
      let s = via Trace.Io.Sexp_lines ".trace" in
      captures_equal c b && captures_equal c s && captures_equal b s)

(* Fuzz the decoder: random byte-flips and truncations of a valid
   encoded stream must load as either a typed Corrupt or a valid capture
   — never any other exception, crash, or hang. *)
let prop_binary_fuzz_corruption =
  QCheck.Test.make ~name:"corrupted binary streams fail typed or load" ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 1 30) gen_event)
           (list_size (int_range 0 6) (pair (int_range 0 10_000) (int_range 1 255)))
           (opt (int_range 0 10_000))))
    (fun (events, flips, trunc) ->
      let data = Trace.Binary.to_string (mk_capture events) in
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
      let path = Filename.temp_file "tracefuzz" ".smtb" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
           let oc = open_out_bin path in
           output_string oc mutated;
           close_out oc;
           match Trace.Io.load path with
           | (_ : Trace.Capture.t) -> true
           | exception Trace.Io.Corrupt _ -> true
           | exception _ -> false))

let () =
  Alcotest.run "trace"
    [ ("capture",
       [ Alcotest.test_case "stats" `Quick test_stats;
         Alcotest.test_case "growth" `Quick test_capture_growth ]);
      ("io",
       [ Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
         Alcotest.test_case "malformed" `Quick test_io_rejects_malformed;
         Alcotest.test_case "atomic save" `Quick test_save_is_atomic;
         Alcotest.test_case "torn save of an empty capture" `Quick test_torn_empty_save ]);
      ("binary",
       [ Alcotest.test_case "multi-chunk roundtrip" `Quick test_binary_roundtrip_synth;
         Alcotest.test_case "edge datums" `Quick test_binary_edge_datums;
         Alcotest.test_case "digest" `Quick test_binary_digest;
         Alcotest.test_case "corrupt stream" `Quick test_binary_rejects_corrupt;
         Alcotest.test_case "truncation everywhere" `Quick test_binary_truncation_everywhere;
         Alcotest.test_case "sexp corrupt offsets" `Quick test_sexp_corrupt_offsets;
         Alcotest.test_case "checksum catches bit-flips" `Quick
           test_binary_checksum_catches_bitflip ]);
      ("preprocess",
       [ Alcotest.test_case "unique ids" `Quick test_preprocess_ids;
         Alcotest.test_case "chaining" `Quick test_preprocess_chaining;
         Alcotest.test_case "chaining across calls" `Quick test_preprocess_chaining_across_calls;
         Alcotest.test_case "atoms" `Quick test_preprocess_atoms;
         Alcotest.test_case "prim refs" `Quick test_prim_refs ]);
      ("synth",
       [ Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
         Alcotest.test_case "valid semantics" `Quick test_synth_valid_semantics;
         Alcotest.test_case "balanced calls" `Quick test_synth_balanced_calls;
         Alcotest.test_case "mix profiles" `Quick test_synth_mix_profiles ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_io_roundtrip;
         QCheck_alcotest.to_alcotest prop_binary_roundtrip;
         QCheck_alcotest.to_alcotest prop_binary_fuzz_corruption ]) ]
