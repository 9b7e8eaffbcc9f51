(* The streaming channel reader of binary traces: the independent
   decoder the source-based reader ({!Trace.Binary.iter_batches}) is
   checked against.  It shares no code with that reader — not the
   varints, the intern table, the checksums nor the datum decoder — and
   reads one chunk at a time from a channel, so it also serves inputs
   that cannot be seeked. *)

module B = Trace.Binary

exception Corrupt = B.Corrupt

let fnv_init = 0xcbf29ce484222325L
let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001b3L

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

let hash_to_string h =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical h (8 * (7 - i))) land 0xff))

let magic = B.magic
let checksum_tag = "SMCK"
let trailer_length = String.length checksum_tag + 8
let small_sym_base = 8
let unzigzag u = (u lsr 1) lxor (- (u land 1))

let magic_error probe =
  if String.length probe = String.length magic
  && String.sub probe 0 (String.length B.family) = B.family
  then "unsupported binary trace version"
  else "bad magic"

(* Every string the stream defines, by the index the writer gave it. *)
type table = { mutable strs : string array; mutable len : int }

let table_create () = { strs = Array.make 64 ""; len = 0 }

let table_add tbl s =
  if tbl.len = Array.length tbl.strs then begin
    let g = Array.make (2 * tbl.len) "" in
    Array.blit tbl.strs 0 g 0 tbl.len;
    tbl.strs <- g
  end;
  tbl.strs.(tbl.len) <- s;
  tbl.len <- tbl.len + 1

exception Local of string

let corrupt what = raise (Local what)

let prim_of_tag : int -> Trace.Event.prim = function
  | 2 -> Car
  | 3 -> Cdr
  | 4 -> Cons
  | 5 -> Rplaca
  | 6 -> Rplacd
  | t -> corrupt (Printf.sprintf "bad primitive tag %d" t)

let get_varint b pos =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= Bytes.length b then corrupt "varint past chunk end";
    if !shift > Sys.int_size - 1 then corrupt "varint too long";
    let c = Char.code (Bytes.get b !pos) in
    incr pos;
    n := !n lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := c land 0x80 <> 0
  done;
  !n

let get_string_ref tbl b pos =
  let r = get_varint b pos in
  if r = 0 then begin
    let len = get_varint b pos in
    if len < 0 || !pos + len > Bytes.length b then corrupt "string past chunk end";
    let s = Bytes.sub_string b !pos len in
    pos := !pos + len;
    table_add tbl s;
    s
  end
  else if r - 1 < tbl.len then tbl.strs.(r - 1)
  else corrupt "string reference out of range"

let rec get_datum tbl b pos : Sexp.Datum.t =
  if !pos >= Bytes.length b then corrupt "datum past chunk end";
  let tag = Char.code (Bytes.get b !pos) in
  incr pos;
  match tag with
  | 0 -> Nil
  | 1 -> Sym (get_string_ref tbl b pos)
  | 2 -> Int (unzigzag (get_varint b pos))
  | 3 -> Str (get_string_ref tbl b pos)
  | 5 | 6 ->
    let count = get_varint b pos in
    (* every car costs at least one byte, so a sane count fits the chunk *)
    if count < 0 || count > Bytes.length b - !pos then corrupt "list longer than chunk";
    let cars = Array.make count Sexp.Datum.Nil in
    for i = 0 to count - 1 do
      cars.(i) <- get_datum tbl b pos
    done;
    let tail : Sexp.Datum.t = if tag = 5 then Nil else get_datum tbl b pos in
    Array.fold_right (fun a d -> Sexp.Datum.Cons (a, d)) cars tail
  | t when t >= small_sym_base ->
    let id = t - small_sym_base in
    if id < tbl.len then Sym tbl.strs.(id) else corrupt "symbol index out of range"
  | t -> corrupt (Printf.sprintf "datum tag %d" t)

let get_event tbl b pos : Trace.Event.t =
  if !pos >= Bytes.length b then corrupt "event past chunk end";
  let tag = Char.code (Bytes.get b !pos) in
  incr pos;
  match tag with
  | 0 ->
    let name = get_string_ref tbl b pos in
    let nargs = get_varint b pos in
    Call { name; nargs }
  | 1 -> Return { name = get_string_ref tbl b pos }
  | 2 | 3 | 4 | 5 | 6 ->
    let prim = prim_of_tag tag in
    let nargs = get_varint b pos in
    (* each argument costs at least one byte *)
    if nargs < 0 || nargs > Bytes.length b - !pos then corrupt "argument count past chunk end";
    let args = List.init nargs (fun _ -> get_datum tbl b pos) in
    let result = get_datum tbl b pos in
    Prim { prim; args; result }
  | t -> corrupt (Printf.sprintf "event tag %d" t)

(* Fill [buf] with as many bytes as the channel still has; returns how
   many were read (used for the probe-like trailer read). *)
let read_available ic buf =
  let rec fill off =
    if off >= Bytes.length buf then off
    else
      match input ic buf off (Bytes.length buf - off) with
      | 0 -> off
      | k -> fill (off + k)
  in
  fill 0

let iter_channel ic f =
  let stream_pos () = try pos_in ic with Sys_error _ -> -1 in
  let fail reason = raise (Corrupt { offset = stream_pos (); reason }) in
  let hash = ref (fnv_string fnv_init magic) in
  let probe =
    try really_input_string ic (String.length magic) with End_of_file -> ""
  in
  if probe <> magic then fail (magic_error probe);
  let read_varint what =
    let n = ref 0 and shift = ref 0 and continue = ref true in
    (try
       while !continue do
         if !shift > Sys.int_size - 1 then fail (what ^ ": varint too long");
         let c = input_byte ic in
         hash := fnv_byte !hash c;
         n := !n lor ((c land 0x7f) lsl !shift);
         shift := !shift + 7;
         continue := c land 0x80 <> 0
       done
     with End_of_file -> fail ("truncated " ^ what));
    !n
  in
  let remaining () =
    match in_channel_length ic - pos_in ic with
    | n -> n
    | exception Sys_error _ -> max_int   (* non-seekable: trust the frame *)
  in
  let tbl = table_create () in
  let finished = ref false in
  while not !finished do
    let count = read_varint "chunk header" in
    if count = 0 then finished := true
    else begin
      let len = read_varint "chunk header" in
      let expected = ref 0L in
      (try
         for _ = 1 to 8 do
           let c = input_byte ic in
           hash := fnv_byte !hash c;
           expected := Int64.logor (Int64.shift_left !expected 8) (Int64.of_int c)
         done
       with End_of_file -> fail "truncated chunk header");
      (* guard the allocation: a corrupt frame must not make us build a
         multi-gigabyte buffer or spin on an absurd event count *)
      if len < 0 || len > remaining () then fail "chunk length past end of file";
      if count > len then fail "more events than payload bytes";
      let payload = Bytes.create len in
      (try really_input ic payload 0 len
       with End_of_file -> fail "truncated chunk payload");
      if fnv_string fnv_init (Bytes.unsafe_to_string payload) <> !expected then
        fail "chunk checksum mismatch";
      let base = stream_pos () in
      let base = if base >= 0 then base - len else base in
      let pos = ref 0 in
      (try
         for _ = 1 to count do
           f (get_event tbl payload pos)
         done;
         if !pos <> len then corrupt "chunk length mismatch"
       with Local reason ->
         raise (Corrupt { offset = (if base >= 0 then base + !pos else -1); reason }))
    end
  done;
  (* The mandatory checksum trailer, as on the mapped path. *)
  let trailer = Bytes.create trailer_length in
  if read_available ic trailer < trailer_length then fail "truncated checksum trailer";
  if Bytes.sub_string trailer 0 (String.length checksum_tag) <> checksum_tag then
    fail "bad checksum trailer";
  if Bytes.sub_string trailer (String.length checksum_tag) 8 <> hash_to_string !hash
  then fail "checksum mismatch"

let read_channel ic =
  let capture = Trace.Capture.create () in
  iter_channel ic (Trace.Capture.record capture);
  capture

(* Per-event iteration over a source through the batch adapter. *)
let iter_source src f =
  B.iter_batches src (fun b ->
      for i = 0 to B.Batch.length b - 1 do
        f (B.Batch.event b i)
      done)
