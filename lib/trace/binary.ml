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

(* ---- flat event batches ----

   One chunk decodes into one reusable batch: a struct-of-arrays form
   with no per-event variant allocation.  Per event i:
   - [tags.(i)] packs the wire kind (low 3 bits: 0 call, 1 return,
     2..6 primitives) with the argument count ([lsl 3]);
   - [names.(i)] is the intern index of a call/return's function name
     (-1 for primitives);
   - datums [ev_dat.(i) .. ev_dat.(i+1)) are the event's top-level
     datums (a primitive's arguments in order, then its result; none
     for calls and returns).  Datum d is the preorder token span
     [dat_tok.(d) .. dat_tok.(d+1)) and [dat_hash.(d)] is the hash of
     that span, folded in as the decoder pushes each token — so a
     consumer reads a datum's bounds and hash without walking it.

   Tokens are interleaved [tag, val] pairs in [toks].  Token tags:
   0 nil; 1 sym (value = intern index); 2 int (value, zigzag already
   undone); 3 str (value = intern index); 4 proper list (value = car
   count >= 1, the cars follow as trees); 5 improper spine (value =
   car count >= 1, the cars then an atom tail).  The stream is
   canonical for every accepted encoding: a spine's nil tail ends a
   proper list, a list tail continues the spine, a degenerate spine
   becomes its tail, and a string carries its first intern index
   however often it was defined.  So two datums are structurally equal
   iff their token spans are identical — which is what lets
   preprocessing assign list identities without ever building datums
   for repeat arguments.  A list header's hash is folded in after its
   cars, once its tag and count are final: the hash stays a function
   of the span. *)

let hash_init = 0x811c9dc5
let[@inline] mix h x = (h lxor x) * 16777619 land max_int

module Batch = struct
  type t = {
    mutable n : int;
    mutable tags : int array;
    mutable names : int array;
    mutable ev_dat : int array;    (* n + 1 entries *)
    mutable ndat : int;
    mutable dat_tok : int array;   (* ndat + 1 entries *)
    mutable dat_hash : int array;
    mutable ntok : int;
    mutable toks : int array;      (* 2 * ntok: tag, val, tag, val ... *)
    mutable hash : int;            (* running hash of the current datum *)
    tbl : table;
  }

  let ttag_nil = 0
  let ttag_sym = 1
  let ttag_int = 2
  let ttag_str = 3
  let ttag_list = 4
  let ttag_improper = 5

  (* sized for a small chunk; the first large chunk grows it *)
  let create tbl =
    { n = 0; tags = Array.make 256 0; names = Array.make 256 (-1);
      ev_dat = Array.make 257 0; ndat = 0; dat_tok = Array.make 512 0;
      dat_hash = Array.make 512 0; ntok = 0; toks = Array.make 2048 0;
      hash = hash_init; tbl }

  let grow a n = let g = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 g 0 (Array.length a); g

  let reserve_events b n =
    if n + 1 > Array.length b.ev_dat then begin
      b.tags <- grow b.tags (n + 1);
      b.names <- grow b.names (n + 1);
      b.ev_dat <- grow b.ev_dat (n + 2)
    end

  (* Also resets the running hash, which a chunk that failed mid-datum
     leaves behind in a batch kept for the next stream. *)
  let clear b =
    b.n <- 0;
    b.ndat <- 0;
    b.ntok <- 0;
    b.ev_dat.(0) <- 0;
    b.dat_tok.(0) <- 0;
    b.hash <- hash_init

  let[@inline] push_raw b tag v =
    let j = 2 * b.ntok in
    if j = Array.length b.toks then b.toks <- grow b.toks 0;
    let toks = b.toks in
    Array.unsafe_set toks j tag;
    Array.unsafe_set toks (j + 1) v;
    b.ntok <- b.ntok + 1

  let[@inline] push_tok b tag v =
    push_raw b tag v;
    b.hash <- mix (mix b.hash tag) v

  (* A list header: reserved before its cars, set and hashed after. *)
  let open_spine b =
    push_raw b 0 0;
    b.ntok - 1

  let close_spine b k tag count =
    b.toks.(2 * k) <- tag;
    b.toks.(2 * k + 1) <- count;
    b.hash <- mix (mix b.hash tag) count

  (* Close the datum whose tokens were pushed since the last call. *)
  let end_datum b =
    let d = b.ndat in
    if d + 2 > Array.length b.dat_tok then begin
      b.dat_tok <- grow b.dat_tok (d + 2);
      b.dat_hash <- grow b.dat_hash (d + 2)
    end;
    b.dat_hash.(d) <- b.hash;
    b.dat_tok.(d + 1) <- b.ntok;
    b.ndat <- d + 1;
    b.hash <- hash_init

  let length b = b.n
  let kind b i = b.tags.(i) land 7
  let nargs b i = b.tags.(i) lsr 3
  let name b i = b.tbl.strs.(b.names.(i))
  let first_datum b i = b.ev_dat.(i)
  let datum_start b d = b.dat_tok.(d)
  let datum_hash b d = b.dat_hash.(d)
  let tokens b = b.toks
  let tok_tag b k = b.toks.(2 * k)
  let tok_val b k = b.toks.(2 * k + 1)
  let tok_str b k = b.tbl.strs.(tok_val b k)

  (* Materialise the datum rooted at token [k]; returns it and the next
     token index.  Only adapters and cold paths use this. *)
  let rec datum b k : Sexp.Datum.t * int =
    match tok_tag b k with
    | 0 -> (Nil, k + 1)
    | 1 -> (Sym (tok_str b k), k + 1)
    | 2 -> (Int (tok_val b k), k + 1)
    | 3 -> (Str (tok_str b k), k + 1)
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
      let k = ref (datum_start b (first_datum b i)) in
      let args =
        List.init na (fun _ ->
            let d, k' = datum b !k in
            k := k';
            d)
      in
      let result, _ = datum b !k in
      Prim { prim; args; result }
end

(* ---- chunk decoding into a batch ---- *)

let varint_tail buf ~limit pos what first =
  let n = ref (first land 0x7f) and shift = ref 7 and continue = ref true in
  while !continue do
    if !pos >= limit then corrupt_at !pos (what ^ ": varint past end");
    if !shift > Sys.int_size - 1 then corrupt_at !pos (what ^ ": varint too long");
    let c = sbyte buf !pos in
    incr pos;
    n := !n lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := c land 0x80 <> 0
  done;
  !n

(* One-byte values (the common case) take the fast path; the past-end
   check guards both. *)
let[@inline] get_varint_src buf ~limit pos what =
  let p = !pos in
  if p >= limit then corrupt_at p (what ^ ": varint past end");
  let c = sbyte buf p in
  pos := p + 1;
  if c < 0x80 then c else varint_tail buf ~limit pos what c

let get_string_id buf ~limit pos tbl =
  let r = get_varint_src buf ~limit pos "string ref" in
  if r = 0 then begin
    let len = get_varint_src buf ~limit pos "string length" in
    if len < 0 || !pos + len > limit then corrupt_at !pos "string past chunk end";
    let s = ssub buf !pos len in
    pos := !pos + len;
    table_add tbl s
  end
  else if r - 1 < tbl.len then tbl.canon.(r - 1)
  else corrupt_at !pos "string reference out of range"

let list_count buf ~limit pos =
  let count = get_varint_src buf ~limit pos "list length" in
  (* every car costs at least one byte, so a sane count fits the chunk *)
  if count < 0 || count > limit - !pos then corrupt_at !pos "list longer than chunk";
  count

let rec decode_datum_tokens buf ~limit pos (b : Batch.t) =
  let p = !pos in
  if p >= limit then corrupt_at p "datum past chunk end";
  let tag = sbyte buf p in
  pos := p + 1;
  if tag >= small_sym_base then begin
    let id = tag - small_sym_base in
    if id < b.Batch.tbl.len then Batch.push_tok b Batch.ttag_sym b.Batch.tbl.canon.(id)
    else corrupt_at !pos "symbol index out of range"
  end
  else
    match tag with
    | 0 -> Batch.push_tok b Batch.ttag_nil 0
    | 1 -> Batch.push_tok b Batch.ttag_sym (get_string_id buf ~limit pos b.Batch.tbl)
    | 2 ->
      Batch.push_tok b Batch.ttag_int
        (unzigzag (get_varint_src buf ~limit pos "int datum"))
    | 3 -> Batch.push_tok b Batch.ttag_str (get_string_id buf ~limit pos b.Batch.tbl)
    | 5 | 6 ->
      let count = list_count buf ~limit pos in
      (* a degenerate spine is its tail: nil, or the explicit tail *)
      if count = 0 then begin
        if tag = 5 then Batch.push_tok b Batch.ttag_nil 0
        else decode_datum_tokens buf ~limit pos b
      end
      else begin
        let k = Batch.open_spine b in
        for _ = 1 to count do
          decode_datum_tokens buf ~limit pos b
        done;
        if tag = 5 then Batch.close_spine b k Batch.ttag_list count
        else begin
          let t = spine_tail buf ~limit pos b count in
          Batch.close_spine b k
            (if t land 1 = 1 then Batch.ttag_list else Batch.ttag_improper) (t lsr 1)
        end
      end
    | t -> corrupt_at (!pos - 1) (Printf.sprintf "datum tag %d" t)

(* The explicit tail of a spine of [cars] cars so far: a nil ends a
   proper list, a list continues the spine (its cars count too), and
   anything else is the spine's atom tail.  Returns [2 * cars + 1] for
   a proper list, [2 * cars] for an atom tail — no allocation.  Reads
   and errors are those of decoding the tail as a datum. *)
and spine_tail buf ~limit pos b cars =
  let p = !pos in
  if p >= limit then corrupt_at p "datum past chunk end";
  match sbyte buf p with
  | 0 -> pos := p + 1; (2 * cars) + 1
  | (5 | 6) as tag ->
    pos := p + 1;
    let count = list_count buf ~limit pos in
    for _ = 1 to count do
      decode_datum_tokens buf ~limit pos b
    done;
    if tag = 5 then (2 * (cars + count)) + 1 else spine_tail buf ~limit pos b (cars + count)
  | _ -> decode_datum_tokens buf ~limit pos b; 2 * cars

let decode_event buf ~limit pos (b : Batch.t) =
  if !pos >= limit then corrupt_at !pos "event past chunk end";
  let tag = sbyte buf !pos in
  incr pos;
  let i = b.Batch.n in
  (match tag with
   | 0 ->
     let id = get_string_id buf ~limit pos b.Batch.tbl in
     let nargs = get_varint_src buf ~limit pos "call arity" in
     b.Batch.tags.(i) <- 0 lor (nargs lsl 3);
     b.Batch.names.(i) <- id
   | 1 ->
     let id = get_string_id buf ~limit pos b.Batch.tbl in
     b.Batch.tags.(i) <- 1;
     b.Batch.names.(i) <- id
   | 2 | 3 | 4 | 5 | 6 ->
     let nargs = get_varint_src buf ~limit pos "argument count" in
     (* each argument costs at least one byte *)
     if nargs < 0 || nargs > limit - !pos then
       corrupt_at !pos "argument count past chunk end";
     (* the arguments, then the result: one top-level datum each *)
     for _ = 0 to nargs do
       decode_datum_tokens buf ~limit pos b;
       Batch.end_datum b
     done;
     b.Batch.tags.(i) <- tag lor (nargs lsl 3);
     b.Batch.names.(i) <- -1
   | t -> corrupt_at (!pos - 1) (Printf.sprintf "event tag %d" t));
  b.Batch.n <- i + 1;
  b.Batch.ev_dat.(i + 1) <- b.Batch.ndat

(* ---- batched replay reader ---- *)

type reader = {
  src : source;
  batch : Batch.t;
  mutable pos : int;
  mutable hash : int64;   (* FNV of magic + headers + end marker *)
  mutable finished : bool;
}

let reader_of src batch =
  check_live src;
  { src;
    batch;
    pos = String.length magic;
    hash = fnv_span src.buf fnv_init 0 (String.length magic);
    finished = false }

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
      if decode && fnv_span r.src.buf fnv_init payload len <> !expected then
        corrupt_at payload "chunk checksum mismatch";
      r.pos <- payload + len;
      if decode then begin
        let b = r.batch in
        Batch.clear b;
        Batch.reserve_events b count;
        let p = ref payload in
        let limit = payload + len in
        for _ = 1 to count do
          decode_event r.src.buf ~limit p b
        done;
        if !p <> limit then corrupt_at !p "chunk length mismatch"
      end;
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
