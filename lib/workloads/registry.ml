type workload = {
  name : string;
  description : string;
  source : string;
  input : Sexp.Datum.t list;
}

let all =
  [ { name = "plagen"; description = "PLA generator (traffic-light controller)";
      source = Plagen.source; input = Plagen.input };
    { name = "slang"; description = "gate-level circuit simulator (BCD decoder)";
      source = Slang.source; input = Slang.input };
    { name = "lyra"; description = "VLSI design-rule checker";
      source = Lyra.source; input = Lyra.input };
    { name = "editor"; description = "structure editor session";
      source = Editor.source; input = Editor.input };
    { name = "pearl"; description = "record database with in-place updates";
      source = Pearl.source; input = Pearl.input } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* One lock guards every cache: bench sections run under
   [Util.Parallel], so concurrent first requests for a workload must not
   race the tables (or trace the same program twice).  The lock is held
   across the fill, serialising cache misses; hits after warm-up only
   pay the lock/unlock. *)
let cache_lock = Mutex.create ()

let with_cache_lock f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let memo tbl w fill =
  match Hashtbl.find_opt tbl w.name with
  | Some x -> x
  | None ->
    let x = fill () in
    Hashtbl.replace tbl w.name x;
    x

(* What is kept of a traced run is its binary encoding, off the OCaml
   heap, and that encoding's MD5: the tracer streams into the encoder,
   so no capture is ever built, and the encoded string is dropped once
   both are made.  [trace] and [preprocessed] are derived from the
   source on first use. *)
type encoded = { digest : string; source : Trace.Binary.source }

let encodings : (string, encoded) Hashtbl.t = Hashtbl.create 8

let encoded_unlocked w =
  memo encodings w @@ fun () ->
  let bytes = Lisp.Tracer.encode_program ~input:w.input w.source in
  { digest = Digest.to_hex (Digest.string bytes);
    source = Trace.Binary.source_of_string bytes }

let digest w = with_cache_lock (fun () -> (encoded_unlocked w).digest)

let trace_cache : (string, Trace.Capture.t) Hashtbl.t = Hashtbl.create 8

let trace w =
  with_cache_lock @@ fun () ->
  memo trace_cache w @@ fun () -> Trace.Binary.capture_of_source (encoded_unlocked w).source

let forms : (string, Trace.Preprocess.t) Hashtbl.t = Hashtbl.create 8

(* Straight off the source, never through [trace], and under the lock,
   so in-process shards that first meet a workload together scan it
   once.  This table is the workload's memo: the scan bypasses
   [Trace.Preprocess.run_source]'s, which would keep a second copy of
   the encoding. *)
let preprocessed w =
  with_cache_lock @@ fun () ->
  memo forms w @@ fun () -> Trace.Preprocess.scan (encoded_unlocked w).source

let simulation_suite () = List.filter (fun w -> w.name <> "pearl") all
