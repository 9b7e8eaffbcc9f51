(* Framing ("SMTB\x02\n"): chunk header = [varint count][varint len]
   [8-byte FNV-1a of the payload], so a source reader verifies each
   chunk as it decodes it — no up-front pass over the file — and the
   mandatory stream trailer covers only the magic, the chunk headers
   and the end marker (the structure), since the payloads carry their
   own sums.  Any other revision byte after "SMTB" is rejected. *)

let magic = "SMTB\x02\n"

(* The revision-independent prefix: a stream starting with it is a
   binary trace, of this revision or an unsupported one. *)
let family = "SMTB"

exception Corrupt of { offset : int; reason : string }

let () =
  Printexc.register_printer (function
    | Corrupt { offset; reason } ->
      Some (Printf.sprintf "Trace.Binary.Corrupt: %s at byte %d" reason offset)
    | _ -> None)

(* ---- FNV-1a 64 ---- *)

let fnv_prime = 0x100000001b3L
let fnv_init = 0xcbf29ce484222325L
let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

let fnv_buffer h buf =
  let h = ref h in
  for i = 0 to Buffer.length buf - 1 do
    h := fnv_byte !h (Char.code (Buffer.nth buf i))
  done;
  !h

let checksum_tag = "SMCK"
let trailer_length = String.length checksum_tag + 8

let hash_to_string h =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical h (8 * (7 - i))) land 0xff))

let add_hash64 buf h =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical h (8 * (7 - i))) land 0xff))
  done

(* ---- encoding primitives ----

   All integers are unsigned LEB128 varints; signed values are
   zigzag-folded first.  Strings are interned: a reference is either
   [0] (a new string follows inline: varint length + bytes, taking the
   next table index) or [1 + index] of an already-seen string. *)

let put_varint buf n =
  (* the int is treated as unsigned: lsr clears the sign bit, so a
     top-bit-set value (zigzagged min_int/max_int) terminates too *)
  let n = ref n in
  while !n < 0 || !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor (- (u land 1))

type intern = {
  ids : (string, int) Hashtbl.t;
  mutable next : int;
}

let intern_create () = { ids = Hashtbl.create 64; next = 0 }

let put_string_ref t buf s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> put_varint buf (1 + id)
  | None ->
    Hashtbl.replace t.ids s t.next;
    t.next <- t.next + 1;
    put_varint buf 0;
    put_varint buf (String.length s);
    Buffer.add_string buf s

(* Datum tags: 0 nil, 1 sym (ref follows), 2 int, 3 str, 5 proper list
   (varint length + that many cars), 6 improper spine (varint length +
   cars + an explicit non-nil tail).  Tag bytes >= [small_sym_base]
   carry an already-interned symbol's index inline, so the hot symbols
   of a trace cost one byte.  Spines are length-prefixed rather than
   cons-tagged per cell: a k-element list costs k car encodings plus a
   2-3 byte header, and decoding it needs no cdr recursion. *)
let small_sym_base = 8
let small_sym_max = 255 - small_sym_base

let put_sym t buf s =
  match Hashtbl.find_opt t.ids s with
  | Some id when id <= small_sym_max -> Buffer.add_char buf (Char.chr (small_sym_base + id))
  | _ -> Buffer.add_char buf '\x01'; put_string_ref t buf s

let rec spine_length acc (d : Sexp.Datum.t) =
  match d with
  | Cons (_, rest) -> spine_length (acc + 1) rest
  | tail -> (acc, tail)

let rec put_datum t buf (d : Sexp.Datum.t) =
  match d with
  | Nil -> Buffer.add_char buf '\x00'
  | Sym s -> put_sym t buf s
  | Int n -> Buffer.add_char buf '\x02'; put_varint buf (zigzag n)
  | Str s -> Buffer.add_char buf '\x03'; put_string_ref t buf s
  | Cons _ ->
    let count, tail = spine_length 0 d in
    (match tail with
     | Nil -> Buffer.add_char buf '\x05'
     | _ -> Buffer.add_char buf '\x06');
    put_varint buf count;
    let rec cars (d : Sexp.Datum.t) =
      match d with
      | Cons (a, rest) -> put_datum t buf a; cars rest
      | _ -> ()
    in
    cars d;
    (match tail with Nil -> () | tail -> put_datum t buf tail)

let prim_tag = function
  | Event.Car -> 2
  | Event.Cdr -> 3
  | Event.Cons -> 4
  | Event.Rplaca -> 5
  | Event.Rplacd -> 6

(* Event tags: 0 call, 1 return, 2-6 the primitives. *)
let put_event t buf (e : Event.t) =
  match e with
  | Call { name; nargs } ->
    Buffer.add_char buf '\x00';
    put_string_ref t buf name;
    put_varint buf nargs
  | Return { name } ->
    Buffer.add_char buf '\x01';
    put_string_ref t buf name
  | Prim { prim; args; result } ->
    Buffer.add_char buf (Char.chr (prim_tag prim));
    put_varint buf (List.length args);
    List.iter (put_datum t buf) args;
    put_datum t buf result

(* ---- streaming writer ---- *)

type sink = {
  put : string -> unit;
  put_buf : Buffer.t -> unit;    (* frame/chunk path: no contents copy *)
}

type writer = {
  sink : sink;
  chunk_events : int;
  chunk : Buffer.t;      (* payload of the chunk being built; [Buffer.clear]
                            keeps its storage, so after the first few chunks
                            it is sized by the observed payloads and the
                            frame path stops allocating *)
  frame : Buffer.t;      (* scratch for the chunk header *)
  intern : intern;
  mutable hash : int64;  (* FNV of the magic + chunk headers + end marker *)
  mutable pending : int;
  mutable closed : bool;
}

let wput w s =
  w.hash <- fnv_string w.hash s;
  w.sink.put s

let writer_of_sink ?(chunk_events = 4096) sink =
  if chunk_events < 1 then invalid_arg "Trace.Binary.writer: chunk_events < 1";
  let w =
    { sink; chunk_events; chunk = Buffer.create 4096; frame = Buffer.create 16;
      intern = intern_create (); hash = fnv_init; pending = 0; closed = false }
  in
  wput w magic;
  w

let flush_chunk w =
  if w.pending > 0 then begin
    Buffer.clear w.frame;
    put_varint w.frame w.pending;
    put_varint w.frame (Buffer.length w.chunk);
    add_hash64 w.frame (fnv_buffer fnv_init w.chunk);
    w.hash <- fnv_buffer w.hash w.frame;
    w.sink.put_buf w.frame;
    w.sink.put_buf w.chunk;
    Buffer.clear w.chunk;
    w.pending <- 0
  end

let write_event w e =
  if w.closed then invalid_arg "Trace.Binary.write_event: writer closed";
  put_event w.intern w.chunk e;
  w.pending <- w.pending + 1;
  if w.pending >= w.chunk_events then flush_chunk w

let close_writer w =
  if not w.closed then begin
    flush_chunk w;
    wput w "\x00";          (* event_count = 0: end of stream *)
    (* the trailer itself is not part of the hashed stream *)
    w.sink.put (checksum_tag ^ hash_to_string w.hash);
    w.closed <- true
  end

let channel_sink oc =
  { put = (fun s -> output_string oc s); put_buf = (fun b -> Buffer.output_buffer oc b) }

let writer ?chunk_events oc = writer_of_sink ?chunk_events (channel_sink oc)

(* ---- shared reader state ---- *)

(* The intern table persists across chunks, mirroring the writer's.
   Every inline definition takes the next index, as the writer counts
   them, but [canon.(i)] is the first index holding the same string:
   a stream that defines a string twice still names it one way.
   [index] finds a string's first index: open addressing over ints,
   [0] for an empty slot, else [1 +] a first index; it holds each
   distinct string once, at most half full. *)
type table = {
  mutable strs : string array;
  mutable canon : int array;
  mutable len : int;
  mutable index : int array;
}

let table_create () =
  { strs = Array.make 64 ""; canon = Array.make 64 0; len = 0; index = Array.make 128 0 }

(* Empty the table for another stream, keeping its storage. *)
let table_reset tbl =
  Array.fill tbl.strs 0 tbl.len "";
  Array.fill tbl.index 0 (Array.length tbl.index) 0;
  tbl.len <- 0

(* The slot of [s] in [index]: the one holding it, or the empty one
   where it belongs. *)
let index_slot index strs s =
  let mask = Array.length index - 1 in
  let rec probe k =
    let j = index.(k) in
    if j = 0 || String.equal strs.(j - 1) s then k else probe ((k + 1) land mask)
  in
  probe (Hashtbl.hash s land mask)

(* Appends [s]; returns its canonical index. *)
let table_add tbl s =
  if tbl.len = Array.length tbl.strs then begin
    let n = 2 * tbl.len in
    let strs = Array.make n "" and canon = Array.make n 0 in
    Array.blit tbl.strs 0 strs 0 tbl.len;
    Array.blit tbl.canon 0 canon 0 tbl.len;
    tbl.strs <- strs;
    tbl.canon <- canon
  end;
  if 2 * (tbl.len + 1) > Array.length tbl.index then begin
    let index = Array.make (2 * Array.length tbl.index) 0 in
    for i = 0 to tbl.len - 1 do
      if tbl.canon.(i) = i then index.(index_slot index tbl.strs tbl.strs.(i)) <- i + 1
    done;
    tbl.index <- index
  end;
  let k = index_slot tbl.index tbl.strs s in
  let c =
    if tbl.index.(k) > 0 then tbl.index.(k) - 1
    else begin
      tbl.index.(k) <- tbl.len + 1;
      tbl.len
    end
  in
  tbl.strs.(tbl.len) <- s;
  tbl.canon.(tbl.len) <- c;
  tbl.len <- tbl.len + 1;
  c

(* ---- zero-copy sources ----

   A [source] is the whole stream as one random-access byte view, off
   the OCaml heap: a [Bigarray] the source owns (a string, or a file
   read once), or the calling domain's kept file buffer for the length
   of a scoped read.  There is one view, so every byte read below is an
   inlined unchecked load; each read is guarded by the caller's [limit]
   check, against [slen] (a kept buffer may be longer than its stream).
   Offsets in [Corrupt] are absolute stream positions. *)

type bigbytes = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type source = {
  buf : bigbytes;
  slen : int;
  mutable live : bool;   (* false once a scoped read has returned *)
}

let check_live src =
  if not src.live then
    invalid_arg "Trace.Binary: source used after its scoped read returned"

let source_length s = check_live s; s.slen

let corrupt_at offset reason = raise (Corrupt { offset; reason })

let[@inline] sbyte (buf : bigbytes) i = Char.code (Bigarray.Array1.unsafe_get buf i)

let ssub (buf : bigbytes) pos len =
  let s = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set s i (Bigarray.Array1.unsafe_get buf (pos + i))
  done;
  Bytes.unsafe_to_string s

let fnv_span (buf : bigbytes) h pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := fnv_byte !h (sbyte buf i)
  done;
  !h

(* The reason every reader gives for a stream that does not start with
   [magic]: an "SMTB" prefix is a binary trace of another revision. *)
let magic_error probe =
  if String.length probe = String.length magic
  && String.sub probe 0 (String.length family) = family
  then "unsupported binary trace version"
  else "bad magic"

let source_of_buf buf slen =
  let probe = ssub buf 0 (min slen (String.length magic)) in
  if probe <> magic then corrupt_at 0 (magic_error probe);
  { buf; slen; live = true }

let bigbytes_create len = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len

external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bigstring_set64u : bigbytes -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bigstring_get64u : bigbytes -> int -> int64 = "%caml_bigstring_get64u"

(* Copy [b.[0 .. len)] into [buf] at [off], eight bytes a move (the
   compiler inlines both primitives, unchecked and unboxed), then the
   last [len mod 8] one at a time.  The caller guarantees both
   ranges. *)
let blit_in b (buf : bigbytes) off len =
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    bigstring_set64u buf (off + !i) (bytes_get64u b !i);
    i := !i + 8
  done;
  for i = words to len - 1 do
    Bigarray.Array1.unsafe_set buf (off + i) (Bytes.unsafe_get b i)
  done

let source_of_string s =
  let len = String.length s in
  let buf = bigbytes_create len in
  blit_in (Bytes.unsafe_of_string s) buf 0 len;
  source_of_buf buf len

(* Read [len] bytes of [fd] into [buf] (at least [len] long). *)
let read_fd_into fd (buf : bigbytes) len =
  let scratch = Bytes.create 65536 in
  let rec fill off =
    if off >= len then ()
    else
      match Unix.read fd scratch 0 (min (Bytes.length scratch) (len - off)) with
      | 0 -> corrupt_at off "file shrank while reading"
      | k ->
        blit_in scratch buf off k;
        fill (off + k)
  in
  fill 0

let source_of_fd fd len =
  if len < String.length magic then corrupt_at 0 "bad magic";
  let buf = bigbytes_create len in
  read_fd_into fd buf len;
  source_of_buf buf len

(* Each domain keeps the buffer of its last scoped read for the next. *)
let file_buffers = Scratch.create Bigarray.char

let with_fd_source fd len f =
  if len < String.length magic then corrupt_at 0 "bad magic";
  Scratch.use file_buffers len @@ fun l ->
  read_fd_into fd l.buf len;
  let src = source_of_buf l.buf len in
  Fun.protect ~finally:(fun () -> src.live <- false) (fun () -> f src)

let copy_source src =
  let len = source_length src in
  let buf = bigbytes_create len in
  Bigarray.Array1.blit (Bigarray.Array1.sub src.buf 0 len) buf;
  { buf; slen = len; live = true }

(* Length first, then eight bytes a compare, then the last [len mod 8]
   one at a time. *)
let source_equal a b =
  let len = source_length a in
  len = source_length b
  && begin
    let words = len land lnot 7 in
    let i = ref 0 in
    while !i < words && (bigstring_get64u a.buf !i : int64) = bigstring_get64u b.buf !i do
      i := !i + 8
    done;
    !i >= words
    && begin
      while !i < len && sbyte a.buf !i = sbyte b.buf !i do
        incr i
      done;
      !i = len
    end
  end

(* ---- flat event batches ----

   One chunk decodes into one reusable batch: a struct-of-arrays form
   with no per-event variant allocation.  Per event i:
   - [tags.(i)] packs the wire kind (low 3 bits: 0 call, 1 return,
     2..6 primitives) with the argument count ([lsl 3]);
   - [names.(i)] is the intern index of a call/return's function name
     (-1 for primitives);
   - datums [ev_dat.(i) .. ev_dat.(i+1)) are the event's top-level
     datums (a primitive's arguments in order, then its result; none
     for calls and returns), and datum d is the preorder token span
     [dat_start.(d) .. dat_stop.(d)).  A datum whose span repeats an
     earlier one of the chunk may share that one's tokens.

   A token is one int, [(value lsl 3) lor tag].  Token tags: 0 nil
   (value 0); 1 sym (value = intern index); 2 int (the value, when it
   fits in 60 signed bits); 3 str (value = intern index); 4 proper list
   (value = car count >= 1, the cars follow as trees); 5 improper spine
   (value = car count >= 1, the cars then an atom tail); 6 then 7, an
   int that does not fit in 60 bits: the tag-6 token holds its high
   bits ([v asr 32]), the tag-7 token after it the low 32.  The stream
   is canonical for every accepted encoding: a spine's nil tail ends a
   proper list, a list tail continues the spine, a degenerate spine
   becomes its tail, a string carries its first intern index however
   often it was defined, and each int has exactly one form.  So two
   datums are structurally equal iff their token spans are identical —
   which is what lets preprocessing assign list identities without
   ever building datums for repeat arguments.

   Every token costs at least one payload byte, so a batch reserved
   for a chunk's payload length takes the decoder's token writes
   unchecked; the datum arrays are reserved per event. *)

(* A datum's hash: one multiply per token, in the order the decoder
   writes them — atoms in place, a list header once its spine closes —
   so a function of the datum's span.  The high bits mix every token
   bit. *)
let hash_init = 0x2C3B_9A1F_0E5D_4781
let[@inline] mix h tok = (h lxor tok) * 0x2545_F491_4F6C_DD1D

(* How many recently decoded lists the decoder remembers. *)
let recent_lists = 4096

module Batch = struct
  type t = {
    mutable n : int;
    mutable tags : int array;
    mutable names : int array;
    mutable ev_dat : int array;    (* n + 1 entries *)
    mutable dat_start : int array;
    mutable dat_stop : int array;
    mutable dat_hash : int array;
    mutable dat_same : int array;
    mutable toks : int array;
    mutable stack : int array;     (* the decoder's enclosing open spines *)
    mutable recent : int array;    (* lists decoded lately, see [decode_chunk] *)
    mutable stamp : int;           (* marks the current chunk's [recent] entries *)
    mutable cursor : int;          (* where the decoder's general varint stopped *)
    mutable ntok : int;            (* tokens decoded so far in the chunk *)
    mutable hash : int;            (* the hash of the datum last decoded *)
    tbl : table;
  }

  let ttag_sym = 1
  let ttag_int = 2
  let ttag_list = 4
  let ttag_improper = 5
  let ttag_int_high = 6
  let ttag_int_low = 7

  let[@inline] token tag v = (v lsl 3) lor tag

  (* empty: the first chunk sizes it *)
  let create tbl =
    { n = 0; tags = [||]; names = [||]; ev_dat = [||]; dat_start = [||]; dat_stop = [||];
      dat_hash = [||]; dat_same = [||]; toks = [||]; stack = [||]; recent = [||]; stamp = 0;
      cursor = 0; ntok = 0; hash = 0; tbl }

  let grow a n = let g = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 g 0 (Array.length a); g

  (* Room for a chunk of [count] events in [len] payload bytes. *)
  let reserve b ~count ~len =
    if Array.length b.recent = 0 then b.recent <- Array.make (4 * recent_lists) 0;
    if count + 1 > Array.length b.ev_dat then begin
      b.tags <- grow b.tags (count + 1);
      b.names <- grow b.names (count + 1);
      b.ev_dat <- grow b.ev_dat (count + 1)
    end;
    if len > Array.length b.toks then b.toks <- grow b.toks len

  (* Room for [n] datums: checked per event, since a chunk holds far
     fewer datums than bytes. *)
  let reserve_datums b n =
    if n > Array.length b.dat_start then begin
      b.dat_start <- grow b.dat_start n;
      b.dat_stop <- grow b.dat_stop n;
      b.dat_hash <- grow b.dat_hash n;
      b.dat_same <- grow b.dat_same n
    end

  let length b = b.n
  let kind b i = b.tags.(i) land 7
  let nargs b i = b.tags.(i) lsr 3
  let name b i = b.tbl.strs.(b.names.(i))
  let first_datum b i = b.ev_dat.(i)
  let datum_start b d = b.dat_start.(d)
  let datum_stop b d = b.dat_stop.(d)
  let datum_hash b d = b.dat_hash.(d)
  let datum_same b d = b.dat_same.(d)
  let tokens b = b.toks
  let tok_tag b k = b.toks.(k) land 7
  let tok_val b k = b.toks.(k) asr 3
  let tok_str b k = b.tbl.strs.(tok_val b k)

  (* Materialise the datum rooted at token [k]; returns it and the next
     token index.  Only adapters and cold paths use this. *)
  let rec datum b k : Sexp.Datum.t * int =
    match tok_tag b k with
    | 0 -> (Nil, k + 1)
    | 1 -> (Sym (tok_str b k), k + 1)
    | 2 -> (Int (tok_val b k), k + 1)
    | 3 -> (Str (tok_str b k), k + 1)
    | 6 -> (Int ((tok_val b k lsl 32) lor tok_val b (k + 1)), k + 2)
    | tag ->
      let count = tok_val b k in
      let cars = Array.make count Sexp.Datum.Nil in
      let k = ref (k + 1) in
      for i = 0 to count - 1 do
        let d, k' = datum b !k in
        cars.(i) <- d;
        k := k'
      done;
      let tail : Sexp.Datum.t =
        if tag = 4 then Nil
        else begin
          let d, k' = datum b !k in
          k := k';
          d
        end
      in
      (Array.fold_right (fun a d -> Sexp.Datum.Cons (a, d)) cars tail, !k)

  (* The thin per-event adapter: rebuild the original [Event.t]. *)
  let event b i : Event.t =
    let kd = kind b i and na = nargs b i in
    match kd with
    | 0 -> Call { name = name b i; nargs = na }
    | 1 -> Return { name = name b i }
    | kd ->
      let prim : Event.prim =
        match kd with 2 -> Car | 3 -> Cdr | 4 -> Cons | 5 -> Rplaca | _ -> Rplacd
      in
      let d0 = first_datum b i in
      let arg j = fst (datum b (datum_start b (d0 + j))) in
      Prim { prim; args = List.init na arg; result = arg na }
end

(* ---- chunk decoding into a batch ---- *)

external bigstring_get32u : bigbytes -> int -> int32 = "%caml_bigstring_get32u"

(* The [recent] entry for a datum whose first eight bytes are at [p]. *)
let[@inline] recent_slot buf p =
  ((Int64.to_int (bigstring_get64u buf p) * 0x9E37_79B1_7F4A_7C1) lsr 40) land (recent_lists - 1)

(* Whether the [len] bytes at [a] and at [b] are equal.  Wider reads
   overlap at the end rather than read past it. *)
let bytes_equal buf a b len =
  if len >= 8 then begin
    let i = ref 0 in
    while !i < len - 8 && (bigstring_get64u buf (a + !i) : int64) = bigstring_get64u buf (b + !i)
    do
      i := !i + 8
    done;
    !i >= len - 8
    && (bigstring_get64u buf (a + len - 8) : int64) = bigstring_get64u buf (b + len - 8)
  end
  else if len >= 4 then
    (bigstring_get32u buf a : int32) = bigstring_get32u buf b
    && (bigstring_get32u buf (a + len - 4) : int32) = bigstring_get32u buf (b + len - 4)
  else begin
    let i = ref 0 in
    while !i < len && sbyte buf (a + !i) = sbyte buf (b + !i) do
      incr i
    done;
    !i = len
  end

(* The varint at [p]: its value, with the position after it left in
   [b.cursor]. *)
let varint buf ~limit p what (b : Batch.t) =
  let n = ref 0 and shift = ref 0 and p = ref p and continue = ref true in
  while !continue do
    if !p >= limit then corrupt_at !p (what ^ ": varint past end");
    if !shift > Sys.int_size - 1 then corrupt_at !p (what ^ ": varint too long");
    let c = sbyte buf !p in
    incr p;
    n := !n lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := c land 0x80 <> 0
  done;
  b.cursor <- !p;
  !n

(* The string reference at [p]: a canonical intern index, with the
   position after it in [b.cursor]. *)
let string_id buf ~limit p (b : Batch.t) =
  let tbl = b.tbl in
  let r = varint buf ~limit p "string ref" b in
  if r = 0 then begin
    let len = varint buf ~limit b.cursor "string length" b in
    let pos = b.cursor in
    if len < 0 || pos + len > limit then corrupt_at pos "string past chunk end";
    b.cursor <- pos + len;
    table_add tbl (ssub buf pos len)
  end
  else if r - 1 < tbl.len then tbl.canon.(r - 1)
  else corrupt_at b.cursor "string reference out of range"

(* A list's car count at [p]; every car costs at least one byte, so a
   sane count fits the chunk. *)
let list_count buf ~limit p (b : Batch.t) =
  let count = varint buf ~limit p "list length" b in
  if count < 0 || count > limit - b.cursor then corrupt_at b.cursor "list longer than chunk";
  count

(* [decode_datum buf ~limit b p] decodes the datum at [p] into tokens
   from [b.ntok] on, and returns the position after it, with [b.ntok]
   past its tokens and [b.hash] their hash.

   Datums decode without recursion.  The innermost open spine is held
   in locals: its header token [top_k], its cars so far [top_cars], the
   cars still to come in its current wire segment [top_rem], and that
   segment's wire tag [top_wt] (5 proper, 6 with an explicit tail, 7
   once the tail is known to be an atom, which the next datum is).
   The [depth - 1] enclosing spines wait on [b.stack], four ints each.
   A list header is written when its spine closes, once its tag and
   count are final.  The one- and two-byte forms of string references
   and ints, most of them, are read in line; everything else goes
   through {!varint} and {!string_id}, which raise the same errors at
   the same offsets. *)
let decode_datum buf ~limit (b : Batch.t) p =
  let module B = Batch in
  let tbl = b.tbl and toks = b.toks in
  let pos = ref p and ntok = ref b.ntok and h = ref hash_init in
  let depth = ref 0 and top_k = ref 0 and top_cars = ref 0 and top_rem = ref 0
  and top_wt = ref 0 in
  let fin = ref false in
  while not !fin do
    (* a datum starts at [pos] *)
    let p = !pos in
    if p >= limit then corrupt_at p "datum past chunk end";
    let t = sbyte buf p in
    let complete =
      if t >= small_sym_base then begin
        let id = t - small_sym_base in
        if id >= tbl.len then corrupt_at (p + 1) "symbol index out of range";
        let tok = B.token B.ttag_sym tbl.canon.(id) in
        Array.unsafe_set toks !ntok tok;
        incr ntok;
        h := mix !h tok;
        pos := p + 1;
        true
      end
      else if t = 1 || t = 3 then begin
        (* a string reference: in line when it is one or two
           bytes naming a string already defined *)
        let r =
          if p + 2 < limit then begin
            let c = sbyte buf (p + 1) in
            if c < 0x80 then begin pos := p + 2; c end
            else
              let c2 = sbyte buf (p + 2) in
              if c2 < 0x80 then begin
                pos := p + 3;
                (c land 0x7f) lor (c2 lsl 7)
              end
              else 0
          end
          else 0
        in
        let id =
          if r > 0 && r - 1 < tbl.len then tbl.canon.(r - 1)
          else begin
            let id = string_id buf ~limit (p + 1) b in
            pos := b.cursor;
            id
          end
        in
        let tok = B.token t id in
        Array.unsafe_set toks !ntok tok;
        incr ntok;
        h := mix !h tok;
        true
      end
      else if t = 2 then begin
        let u =
          let c = if p + 1 < limit then sbyte buf (p + 1) else 0x80 in
          if c < 0x80 then begin pos := p + 2; c end
          else if p + 2 < limit && sbyte buf (p + 2) < 0x80 then begin
            pos := p + 3;
            (c land 0x7f) lor (sbyte buf (p + 2) lsl 7)
          end
          else begin
            let u = varint buf ~limit (p + 1) "int datum" b in
            pos := b.cursor;
            u
          end
        in
        let v = unzigzag u in
        if (v lsl 3) asr 3 = v then begin
          let tok = B.token B.ttag_int v in
          Array.unsafe_set toks !ntok tok;
          incr ntok;
          h := mix !h tok
        end
        else begin
          let high = B.token B.ttag_int_high (v asr 32)
          and low = B.token B.ttag_int_low (v land 0xFFFF_FFFF) in
          Array.unsafe_set toks !ntok high;
          Array.unsafe_set toks (!ntok + 1) low;
          ntok := !ntok + 2;
          h := mix (mix !h high) low
        end;
        true
      end
      else if t = 0 then begin
        (* nil *)
        Array.unsafe_set toks !ntok 0;
        incr ntok;
        h := mix !h 0;
        pos := p + 1;
        true
      end
      else if t = 5 || t = 6 then begin
        let count =
          let c = if p + 1 < limit then sbyte buf (p + 1) else 0x80 in
          if c < 0x80 && c <= limit - (p + 2) then begin pos := p + 2; c end
          else begin
            let c = list_count buf ~limit (p + 1) b in
            pos := b.cursor;
            c
          end
        in
        if count = 0 then begin
          (* a degenerate spine is its tail: nil, or the explicit
             tail, which the next round decodes in its place *)
          if t = 5 then begin
            Array.unsafe_set toks !ntok 0;
            incr ntok;
            h := mix !h 0
          end;
          t = 5
        end
        else begin
          if !depth > 0 then begin
            let d = 4 * (!depth - 1) in
            if d + 4 > Array.length b.stack then b.stack <- B.grow b.stack (d + 4);
            let st = b.stack in
            Array.unsafe_set st d !top_k;
            Array.unsafe_set st (d + 1) !top_cars;
            Array.unsafe_set st (d + 2) !top_rem;
            Array.unsafe_set st (d + 3) !top_wt
          end;
          incr depth;
          top_k := !ntok;
          incr ntok;
          top_cars := count;
          top_rem := count;
          top_wt := t;
          false
        end
      end
      else corrupt_at p (Printf.sprintf "datum tag %d" t)
    in
    (* a datum is complete: it fills a car (or the tail) of the
       open spine, which may then close, and so on outwards *)
    let up = ref complete in
    while !up do
      if !depth = 0 then begin fin := true; up := false end
      else begin
        let closing =
          if !top_wt = 7 then B.ttag_improper
          else begin
            decr top_rem;
            if !top_rem > 0 then -1
            else begin
              (* the segment is done: a proper one closes the
                 spine, an explicit tail ends or continues it *)
              let closing = ref (-2) in
              while !closing = -2 do
                if !top_wt = 5 then closing := B.ttag_list
                else begin
                  let p = !pos in
                  if p >= limit then corrupt_at p "datum past chunk end";
                  let c = sbyte buf p in
                  if c = 0 then begin pos := p + 1; closing := B.ttag_list end
                  else if c = 5 || c = 6 then begin
                    let count = list_count buf ~limit (p + 1) b in
                    pos := b.cursor;
                    top_cars := !top_cars + count;
                    top_rem := count;
                    top_wt := c;
                    if count > 0 then closing := -1
                  end
                  else begin
                    (* an atom tail: the next datum *)
                    top_wt := 7;
                    closing := -1
                  end
                end
              done;
              !closing
            end
          end
        in
        if closing < 0 then up := false
        else begin
          let tok = B.token closing !top_cars in
          Array.unsafe_set toks !top_k tok;
          h := mix !h tok;
          decr depth;
          if !depth > 0 then begin
            let d = 4 * (!depth - 1) in
            let st = b.stack in
            top_k := Array.unsafe_get st d;
            top_cars := Array.unsafe_get st (d + 1);
            top_rem := Array.unsafe_get st (d + 2);
            top_wt := Array.unsafe_get st (d + 3)
          end
        end
      end
    done
  done;
  b.ntok <- !ntok;
  b.hash <- !h;
  !pos

(* [decode_chunk buf ~payload ~limit ~count b] decodes the [count]
   events of the payload [payload .. limit) into [b].

   A top-level list whose bytes are those of one decoded earlier in the
   chunk has the same tokens, unless it defines a string, so it shares
   that one's span: [recent] remembers, by their first eight bytes, the
   lists decoded lately (the chunk's [stamp], where the bytes are and
   how many, and the datum). *)
let decode_chunk buf ~payload ~limit ~count (b : Batch.t) =
  Batch.reserve b ~count ~len:(limit - payload);
  b.n <- 0;
  b.ntok <- 0;
  b.stamp <- b.stamp + 1;
  let tbl = b.tbl and recent = b.recent and stamp = b.stamp in
  let pos = ref payload and ndat = ref 0 in
  b.ev_dat.(0) <- 0;
  for i = 0 to count - 1 do
    let p = !pos in
    if p >= limit then corrupt_at p "event past chunk end";
    let tag = sbyte buf p in
    pos := p + 1;
    (match tag with
     | 0 ->
       let id = string_id buf ~limit !pos b in
       let nargs = varint buf ~limit b.cursor "call arity" b in
       pos := b.cursor;
       b.tags.(i) <- nargs lsl 3;
       b.names.(i) <- id
     | 1 ->
       let id = string_id buf ~limit !pos b in
       pos := b.cursor;
       b.tags.(i) <- 1;
       b.names.(i) <- id
     | 2 | 3 | 4 | 5 | 6 ->
       let nargs =
         let c = if p + 1 < limit then sbyte buf (p + 1) else 0x80 in
         if c < 0x80 then begin pos := p + 2; c end
         else begin
           let n = varint buf ~limit (p + 1) "argument count" b in
           pos := b.cursor;
           n
         end
       in
       (* each argument costs at least one byte *)
       if nargs < 0 || nargs > limit - !pos then
         corrupt_at !pos "argument count past chunk end";
       (* the arguments, then the result: one top-level datum each *)
       Batch.reserve_datums b (!ndat + nargs + 1);
       let dat_start = b.dat_start and dat_stop = b.dat_stop and dat_hash = b.dat_hash
       and dat_same = b.dat_same in
       for _ = 0 to nargs do
         let start = !pos and d = !ndat in
         (* [e]: the entry in [recent] of a list, or -1 *)
         let e =
           if start + 8 <= limit && (let t = sbyte buf start in t = 5 || t = 6) then
             4 * recent_slot buf start
           else -1
         in
         if e >= 0 && Array.unsafe_get recent e = stamp
            && (let len = Array.unsafe_get recent (e + 2) in
                start + len <= limit
                && bytes_equal buf (Array.unsafe_get recent (e + 1)) start len)
         then begin
           let same = Array.unsafe_get recent (e + 3) in
           Array.unsafe_set dat_same d same;
           Array.unsafe_set dat_start d (Array.unsafe_get dat_start same);
           Array.unsafe_set dat_stop d (Array.unsafe_get dat_stop same);
           Array.unsafe_set dat_hash d (Array.unsafe_get dat_hash same);
           pos := start + Array.unsafe_get recent (e + 2)
         end
         else begin
           let defined = tbl.len in
           Array.unsafe_set dat_same d (-1);
           Array.unsafe_set dat_start d b.ntok;
           pos := decode_datum buf ~limit b start;
           Array.unsafe_set dat_stop d b.ntok;
           Array.unsafe_set dat_hash d b.hash;
           if e >= 0 && tbl.len = defined then begin
             Array.unsafe_set recent e stamp;
             Array.unsafe_set recent (e + 1) start;
             Array.unsafe_set recent (e + 2) (!pos - start);
             Array.unsafe_set recent (e + 3) d
           end
         end;
         ndat := d + 1
       done;
       b.tags.(i) <- tag lor (nargs lsl 3);
       b.names.(i) <- -1
     | t -> corrupt_at (!pos - 1) (Printf.sprintf "event tag %d" t));
    b.n <- i + 1;
    b.ev_dat.(i + 1) <- !ndat
  done;
  if !pos <> limit then corrupt_at !pos "chunk length mismatch"

(* ---- batched replay reader ---- *)

type reader = {
  src : source;
  batch : Batch.t;
  mutable pos : int;
  mutable hash : int64;   (* FNV of magic + headers + end marker *)
  mutable finished : bool;
  mutable ahead : int;     (* a later chunk's payload, summed early; -1 none *)
  mutable ahead_len : int;
  mutable ahead_sum : int64;
}

let reader_of src batch =
  check_live src;
  { src;
    batch;
    pos = String.length magic;
    hash = fnv_span src.buf fnv_init 0 (String.length magic);
    finished = false; ahead = -1; ahead_len = 0; ahead_sum = 0L }

let read_source src = reader_of src (Batch.create (table_create ()))

(* Read a header varint, folding its bytes into the stream hash. *)
let header_varint r what =
  let limit = r.src.slen in
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if r.pos >= limit then corrupt_at r.pos ("truncated " ^ what);
    if !shift > Sys.int_size - 1 then corrupt_at r.pos (what ^ ": varint too long");
    let c = sbyte r.src.buf r.pos in
    r.pos <- r.pos + 1;
    r.hash <- fnv_byte r.hash c;
    n := !n lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := c land 0x80 <> 0
  done;
  !n

(* The trailer is mandatory: a stream cut right after its end marker is
   truncated like any other.  (Bytes beyond the trailer are ignored.) *)
let check_trailer r =
  if r.src.slen - r.pos < trailer_length then corrupt_at r.pos "truncated checksum trailer";
  if ssub r.src.buf r.pos (String.length checksum_tag) <> checksum_tag then
    corrupt_at r.pos "bad checksum trailer";
  if ssub r.src.buf (r.pos + String.length checksum_tag) 8 <> hash_to_string r.hash then
    corrupt_at r.pos "checksum mismatch"

(* The payload of the chunk whose header is at [p], as (offset,
   length), when the header reads as a data chunk that fits the
   source; otherwise (-1, 0).  Nothing is raised: the chunk's own turn
   reports its damage. *)
let peek_payload src p =
  let p = ref p and ok = ref true in
  let varint () =
    let n = ref 0 and shift = ref 0 and continue = ref true in
    while !ok && !continue do
      if !p >= src.slen || !shift > Sys.int_size - 1 then ok := false
      else begin
        let c = sbyte src.buf !p in
        incr p;
        n := !n lor ((c land 0x7f) lsl !shift);
        shift := !shift + 7;
        continue := c land 0x80 <> 0
      end
    done;
    !n
  in
  let count = varint () in
  let len = varint () in
  let payload = !p + 8 in
  if !ok && count > 0 && len >= 0 && len <= src.slen - payload then (payload, len) else (-1, 0)

(* The sums of two payloads in one pass: two independent chains of
   multiplies run side by side, where one alone waits on each. *)
let fnv_span2 buf a la b lb =
  let n = min la lb in
  let h = ref fnv_init and h' = ref fnv_init in
  for i = 0 to n - 1 do
    h := fnv_byte !h (sbyte buf (a + i));
    h' := fnv_byte !h' (sbyte buf (b + i))
  done;
  (fnv_span buf !h (a + n) (la - n), fnv_span buf !h' (b + n) (lb - n))

(* The sum of the payload [payload, payload + len): the chunk checksum
   must hold before a single event of the chunk is decoded.  It is
   summed together with the next chunk's payload, whose sum waits for
   that chunk's turn. *)
let payload_sum r payload len =
  if payload = r.ahead && len = r.ahead_len then r.ahead_sum
  else
    match peek_payload r.src (payload + len) with
    | next, next_len when next >= 0 ->
      let sum, next_sum = fnv_span2 r.src.buf payload len next next_len in
      r.ahead <- next;
      r.ahead_len <- next_len;
      r.ahead_sum <- next_sum;
      sum
    | _ -> fnv_span r.src.buf fnv_init payload len

(* Decode the next chunk into the reader's reused batch.  [decode:false]
   (the header-only path) skips payload decoding and verification and
   returns an empty batch whose event count is reported separately. *)
let next_chunk ~decode r =
  check_live r.src;
  if r.finished then None
  else begin
    let count = header_varint r "chunk header" in
    if count = 0 then begin
      r.finished <- true;
      check_trailer r;
      None
    end
    else begin
      let len = header_varint r "chunk header" in
      if r.pos + 8 > r.src.slen then corrupt_at r.pos "truncated chunk header";
      let expected = ref 0L in
      for _ = 1 to 8 do
        let c = sbyte r.src.buf r.pos in
        r.pos <- r.pos + 1;
        r.hash <- fnv_byte r.hash c;
        expected := Int64.logor (Int64.shift_left !expected 8) (Int64.of_int c)
      done;
      (* guard the decode: a corrupt frame must not make us walk a
         multi-gigabyte span or spin on an absurd event count *)
      if len < 0 || r.pos + len > r.src.slen then
        corrupt_at r.pos "chunk length past end of file";
      if count > len then corrupt_at r.pos "more events than payload bytes";
      let payload = r.pos in
      if decode && payload_sum r payload len <> !expected then
        corrupt_at payload "chunk checksum mismatch";
      r.pos <- payload + len;
      if decode then decode_chunk r.src.buf ~payload ~limit:(payload + len) ~count r.batch;
      Some count
    end
  end

let next_batch r =
  match next_chunk ~decode:true r with
  | Some _ -> Some r.batch
  | None -> None

(* Each domain keeps the batch of its last [iter_batches] for the next,
   so a scan decodes into arrays, and an intern table, that earlier
   streams already sized.  The table is emptied when the batch is
   kept, so it pins no strings.  The cell is empty while a batch is
   out, so a nested iteration decodes into a batch of its own. *)
let kept_batch = Domain.DLS.new_key (fun () -> ref None)

let iter_batches src f =
  let cell = Domain.DLS.get kept_batch in
  let batch =
    match !cell with
    | Some b -> cell := None; b
    | None -> Batch.create (table_create ())
  in
  let r = reader_of src batch in
  let rec go () =
    match next_batch r with
    | Some b -> f b; go ()
    | None -> ()
  in
  Fun.protect go ~finally:(fun () ->
      table_reset batch.Batch.tbl;
      cell := Some batch)

(* ---- header-only statistics ---- *)

type header_stats = {
  h_events : int;
  h_chunks : int;
  h_bytes : int;
  h_payload_bytes : int;
}

(* Chunk headers alone: total events and sizes without touching any
   payload byte.  The structural trailer is still verified, so damaged
   headers are detected. *)
let header_stats src =
  let r = read_source src in
  let events = ref 0 and chunks = ref 0 and payload = ref 0 in
  let rec go () =
    let before = r.pos in
    match next_chunk ~decode:false r with
    | Some count ->
      events := !events + count;
      incr chunks;
      (* payload span = advance minus the header bytes *)
      let header_len =
        let p = ref before in
        let n = ref 0 in
        (* count varint *)
        while sbyte src.buf !p land 0x80 <> 0 do incr p; incr n done;
        incr p; incr n;
        while sbyte src.buf !p land 0x80 <> 0 do incr p; incr n done;
        !n + 1 + 8
      in
      payload := !payload + (r.pos - before - header_len);
      go ()
    | None -> ()
  in
  go ();
  { h_events = !events; h_chunks = !chunks; h_bytes = src.slen;
    h_payload_bytes = !payload }

(* ---- whole-capture convenience ---- *)

let write_channel oc capture =
  let w = writer oc in
  Array.iter (write_event w) (Capture.events capture);
  close_writer w

let capture_of_source src =
  let capture = Capture.create () in
  iter_batches src (fun b ->
      for i = 0 to Batch.length b - 1 do
        Capture.record capture (Batch.event b i)
      done);
  capture

let encode produce =
  let buf = Buffer.create 65536 in
  let w =
    writer_of_sink
      { put = Buffer.add_string buf; put_buf = (fun b -> Buffer.add_buffer buf b) }
  in
  produce (write_event w);
  close_writer w;
  Buffer.contents buf

let to_string capture = encode (fun emit -> Array.iter emit (Capture.events capture))

let digest capture = Digest.to_hex (Digest.string (to_string capture))

(* Saves are atomic: the stream goes to a temp file in the target
   directory, which is then renamed over the destination, so a killed
   run never leaves a truncated trace behind.  An injected torn write
   deliberately breaks that guarantee — it models a disk that
   acknowledged bytes it never persisted: a strict prefix lands at the
   destination and the save "succeeds", which is what the load-side
   checks exist to catch. *)
let write_atomic ?fault path write =
  let torn =
    match Option.bind fault (fun p -> Fault.Plan.on_write p ~site:"trace.save") with
    | Some Fault.Plan.Write_error -> raise (Sys_error (path ^ ": injected write error"))
    | Some (Fault.Plan.Torn_write keep) -> Some keep
    | None -> None
  in
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) "trace" ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
    Option.iter
      (fun keep ->
         (* at least one byte and at most [len - 1]: a strict prefix,
            and an empty stream stays empty *)
         let len = (Unix.stat tmp).Unix.st_size in
         Unix.truncate tmp
           (max 0 (min (len - 1) (max 1 (int_of_float (keep *. float_of_int len))))))
      torn;
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let save ?fault path capture = write_atomic ?fault path (fun oc -> write_channel oc capture)
