type refs = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  codes : int array;
  refs : refs;
  np : int array;
  distinct_lists : int;
  stats : Capture.stats;
}

(* ---- the event code ----

   One int per event:

     bits 0..2   wire kind (0 call / 1 return / 2..6 prim)
     bit  3      result-is-list          (prims; calls: nargs from bit 3)
     bits 4..11  positional argument count (saturating at 255)
     bits 12..35 list-argument position mask
     bits 36..59 chained position mask
     bit  60     wide: more than 24 arguments

   A wide primitive has no position masks: bits 12..35 count its list
   arguments and bit 36 says whether any of them is chained, which is
   all the analyses read; the simulator refuses it. *)

let wide = 1 lsl 60
let call_code nargs = nargs lsl 3
let return_code = 1

let prim_code ~kind ~arity =
  kind lor (min arity 0xFF lsl 4) lor (if arity > 24 then wide else 0)

let ref_count t = Bigarray.Array1.dim t.refs
let ref_id t k = Int32.to_int (Bigarray.Array1.get t.refs k)

let kind code = code land 7
let call_nargs code = code lsr 3
let result_is_list code = code land 8 <> 0
let arity code = (code lsr 4) land 0xFF
let list_mask code = (code lsr 12) land 0xFFFFFF
let chained_mask code = (code lsr 36) land 0xFFFFFF
let is_wide code = code land wide <> 0

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let list_args code = if is_wide code then list_mask code else popcount (list_mask code)
let chained code = chained_mask code <> 0

let[@inline] add_list_arg code j ~chained =
  if not (is_wide code) then
    code lor (1 lsl (12 + j)) lor (if chained then 1 lsl (36 + j) else 0)
  else if list_mask code = 0xFFFFFF then
    invalid_arg "Trace.Preprocess: a primitive with 2^24 list arguments"
  else (code + (1 lsl 12)) lor (if chained then 1 lsl 36 else 0)

(* ---- the builder both producers write through ----

   Neither the reference stream's length nor the (n, p) table's is
   known until the scan ends.  Both are written in place into arrays
   the form keeps, sized at the lengths the domain's last build ended
   with: a worker that serves job after job over one trace writes them
   at their final length, and copies neither.  Otherwise they grow by
   doubling and are cut to length once.  The reference stream is
   32-bit ids off the OCaml heap.  On the heap it raised the service's
   peak memory on cold misses by a quarter, as OCaml ints and as a
   [Bytes.t] alike: the [Bigarray]'s foreign memory paces the major
   collector, which then keeps less garbage around. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A pool's starting length: the kept length, capped by [bound] (what
   the input can need), or [default] on the domain's first use. *)
let start pool bound default =
  match Scratch.kept_length pool with 0 -> default | kept -> max 1 (min kept bound)

(* The reference stream's and the (n, p) table's lengths at the end of
   the domain's last build. *)
let last_lengths = Domain.DLS.new_key (fun () -> ref (0, 0))

type builder = {
  codes : int array;
  mutable events : int;
  mutable refs : refs;
  mutable n_refs : int;
  mutable np : int array;
  mutable ids : int;             (* ids assigned; id i's (n, p) at 2i *)
  mutable prev : int;            (* the previous primitive's list result; -1 none *)
  mutable functions : int;
  mutable primitives : int;
  mutable depth : int;
  mutable max_depth : int;
}

let[@inline] event b code =
  if b.events < Array.length b.codes then b.codes.(b.events) <- code;
  b.events <- b.events + 1

let call b nargs =
  b.functions <- b.functions + 1;
  b.depth <- b.depth + 1;
  if b.depth > b.max_depth then b.max_depth <- b.depth;
  event b (call_code nargs)

let return_ b =
  b.depth <- b.depth - 1;
  event b return_code

let fresh b ~n ~p =
  let id = b.ids in
  if id = Int32.to_int Int32.max_int then invalid_arg "Trace.Preprocess: 2^31 distinct lists";
  if 2 * id + 1 >= Array.length b.np then begin
    let g = Array.make (2 * Array.length b.np + 2) 0 in
    Array.blit b.np 0 g 0 (2 * id);
    b.np <- g
  end;
  Array.unsafe_set b.np (2 * id) n;
  Array.unsafe_set b.np ((2 * id) + 1) p;
  b.ids <- id + 1;
  id

(* A primitive is written in steps: [prim_code] starts its code, [arg]
   adds each argument in order and [result] ends it.  A list id is
   [-1] for an atom. *)
let[@inline] push_ref b id =
  let module A = Bigarray.Array1 in
  let k = b.n_refs in
  if k = A.dim b.refs then begin
    let g = A.create Bigarray.int32 Bigarray.c_layout (2 * k + 1) in
    A.blit b.refs (A.sub g 0 k);
    b.refs <- g
  end;
  A.unsafe_set b.refs k (Int32.of_int id);
  b.n_refs <- k + 1

(* Argument [j], of list id [id], of a primitive whose code so far is
   [code]; it is chained when it is the previous primitive's list
   result. *)
let[@inline] arg b code j id =
  if id < 0 then code
  else begin
    push_ref b id;
    add_list_arg code j ~chained:(id = b.prev)
  end

let result b code id =
  let code = if id < 0 then code else begin push_ref b id; code lor 8 end in
  b.prev <- id;
  b.primitives <- b.primitives + 1;
  event b code

(* [build ~events ~bound f] runs [f] on a builder for [events] events
   whose input bounds the reference stream and the (n, p) table by
   [bound] ints each, so a small trace after a large one does not start
   at the large one's lengths.  A domain's first build sizes them from
   the event count (traces hold about 1.4 references and at most a
   quarter of a distinct list per event). *)
let build ~events ~bound f =
  let last = Domain.DLS.get last_lengths in
  let refs_len, np_len =
    match !last with
    | 0, 0 -> (3 * (events / 2), events / 2)
    | r, n -> (min r bound, min n bound)
  in
  let b =
    { codes = Array.make events 0; events = 0;
      refs = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout refs_len;
      n_refs = 0; np = Array.make np_len 0; ids = 0; prev = -1; functions = 0;
      primitives = 0; depth = 0; max_depth = 0 }
  in
  f b;
  if b.events <> events then
    raise (Binary.Corrupt { offset = 0; reason = "event count changed while reading" });
  last := (b.n_refs, 2 * b.ids);
  { codes = b.codes;
    refs =
      (let module A = Bigarray.Array1 in
       if b.n_refs = A.dim b.refs then b.refs
       else begin
         let r = A.create Bigarray.int32 Bigarray.c_layout b.n_refs in
         A.blit (A.sub b.refs 0 b.n_refs) r;
         r
       end);
    np = (if 2 * b.ids = Array.length b.np then b.np else Array.sub b.np 0 (2 * b.ids));
    distinct_lists = b.ids;
    stats =
      { Capture.functions = b.functions; primitives = b.primitives;
        max_depth = b.max_depth } }

(* ---- off a capture: list identity by datum hashing ---- *)

module Dtbl = Hashtbl.Make (struct
    type t = Sexp.Datum.t

    let equal = Sexp.Datum.equal
    let hash = Sexp.Datum.hash
  end)

let wire_kind : Event.prim -> int = function
  | Car -> 2
  | Cdr -> 3
  | Cons -> 4
  | Rplaca -> 5
  | Rplacd -> 6

let run capture =
  (* [ids] maps a list's s-expression form to the id of the most recently
     created object of that shape: structurally identical arguments are
     assumed to be that latest object (the thesis's assumption), but a
     cons (or rplac) *result* is always a fresh cell, however familiar it
     looks — without this, recurring small numeric lists stitch unrelated
     structures together. *)
  let ids = Dtbl.create 1024 in
  build ~events:(Capture.length capture) ~bound:max_int @@ fun b ->
  let fresh_id d =
    let n, p = Sexp.Metrics.np d in
    let id = fresh b ~n ~p in
    Dtbl.replace ids d id;
    id
  in
  let id_of (d : Sexp.Datum.t) =
    match d with
    | Cons _ -> (match Dtbl.find_opt ids d with Some id -> id | None -> fresh_id d)
    | Nil | Sym _ | Int _ | Str _ -> -1
  in
  Array.iter
    (fun (e : Event.t) ->
       match e with
       | Call { nargs; _ } -> call b nargs
       | Return _ -> return_ b
       | Prim { prim = p; args; result = r } ->
         let code = ref (prim_code ~kind:(wire_kind p) ~arity:(List.length args)) in
         List.iteri (fun j d -> code := arg b !code j (id_of d)) args;
         result b !code
           (match r, p with
            | Cons _, (Cons | Rplaca | Rplacd) -> fresh_id r
            | _ -> id_of r))
    (Capture.events capture)

(* ---- off a binary source: list identity by token spans ---- *)

(* The span table's storage: kept per domain between scans, off the
   OCaml heap (see {!Scratch}). *)
let slot_pool = Scratch.create Bigarray.int
let key_pool = Scratch.create Bigarray.int
let datum_pool = Scratch.create Bigarray.int

(* Entries of the cache of recently used keys in front of the table. *)
let recent_size = 1024

(* [run_source] is [run] off the flat batches of a binary trace.  The
   token stream of a batch is canonical — two datums are structurally
   equal iff their token spans are identical (see {!Binary.Batch}) — so
   list identity is assigned from span equality alone and no datum is
   ever built, and a fresh id's (n, p) is counted off its tokens. *)
let run_source src =
  let module B = Binary.Batch in
  let module A = Bigarray.Array1 in
  (* The span table maps a span to the latest id of its shape.  Each
     distinct span is stored once, as a key in an append-only arena:
     [len; latest id; the len tokens].  A slot of the open-addressing
     table is one int: [-1] when empty, else 30 high bits of the span's
     hash above the offset of its key.  A probe compares those bits,
     then the key, and reads the id beside it.

     Most lookups repeat a shape used a few lists before.  A list the
     decoder found to repeat an earlier datum of its batch
     ({!Binary.Batch.datum_same}) takes that datum's key, kept per batch
     datum in [kd].  Otherwise a small direct-mapped cache of
     [hash; key offset + 1] pairs, indexed by other bits of the hash, is
     tried before the table: it points at the same key the table would
     find, so it gives the same id.  On the 465k-event trace perfbench
     reads, 81% of the 648,608 list lookups are shared by the decoder,
     11% hit the cache and 8% reach the table.

     The stores are the domain's kept storage: a scan clears the slots
     and rewinds the arena, starting at the capacity the last scan
     reached.  The source length bounds what a scan can need — every
     list costs at least two bytes, every token one — so a scan of a
     far smaller trace lets {!Scratch.use} replace the kept storage by
     storage that fits; the same bound caps where the reference stream
     and the (n, p) table start. *)
  let slen = Binary.source_length src in
  let rec pow2 c = if c >= slen then c else pow2 (2 * c) in
  Scratch.use slot_pool (start slot_pool (pow2 1024) 4096)
  @@ fun sl ->
  Scratch.use key_pool (start key_pool (3 * slen + 1) 65536)
  @@ fun kl ->
  A.fill sl.buf (-1);
  let mask = ref (A.dim sl.buf - 1) in
  let used = ref 0 in
  let filled = ref 0 in
  let key_matches toks k0 len koff =
    let key : ints = kl.buf in
    A.unsafe_get key koff = len
    && (let j = ref 0 in
        while !j < len && A.unsafe_get key (koff + 2 + !j) = Array.unsafe_get toks (k0 + !j) do
          incr j
        done;
        !j = len)
  in
  (* The key offset of the span, or [-1 - s] for the empty slot [s]
     where it belongs. *)
  let find toks k0 len top =
    let slots : ints = sl.buf and mask = !mask in
    let s = ref (top land mask) and found = ref 0 and probing = ref true in
    while !probing do
      let v = A.unsafe_get slots !s in
      if v = -1 then begin found := -1 - !s; probing := false end
      else if v lsr 32 = top && key_matches toks k0 len (v land 0xFFFF_FFFF) then begin
        found := v land 0xFFFF_FFFF;
        probing := false
      end
      else s := (!s + 1) land mask
    done;
    !found
  in
  let grow () =
    let old : ints = sl.buf in
    let ncap = 2 * A.dim old in
    let nmask = ncap - 1 in
    let nslots : ints = A.create Bigarray.int Bigarray.c_layout ncap in
    A.fill nslots (-1);
    for i = 0 to A.dim old - 1 do
      let v = A.get old i in
      if v <> -1 then begin
        let s = ref ((v lsr 32) land nmask) in
        while A.get nslots !s <> -1 do
          s := (!s + 1) land nmask
        done;
        A.set nslots !s v
      end
    done;
    sl.buf <- nslots;
    mask := nmask
  in
  (* store the span as a new key in the empty slot [s] *)
  let add_key s toks k0 len top id =
    let koff = !used in
    let need = koff + len + 2 in
    if need > 0xFFFF_FFFF then invalid_arg "Trace.Preprocess: span keys past 2^32 words";
    if need > A.dim kl.buf then begin
      let g : ints = A.create Bigarray.int Bigarray.c_layout (max need (2 * A.dim kl.buf)) in
      A.blit (A.sub kl.buf 0 koff) (A.sub g 0 koff);
      kl.buf <- g
    end;
    let key : ints = kl.buf in
    A.unsafe_set key koff len;
    A.unsafe_set key (koff + 1) id;
    for j = 0 to len - 1 do
      A.unsafe_set key (koff + 2 + j) (Array.unsafe_get toks (k0 + j))
    done;
    A.set sl.buf s ((top lsl 32) lor koff);
    used := need;
    incr filled;
    if 2 * (!filled + 1) >= A.dim sl.buf then grow ()
  in
  (* the chunk headers give the event count up front *)
  let events = (Binary.header_stats src).Binary.h_events in
  build ~events ~bound:slen @@ fun b ->
  (* (n, p) of §3.3.1 off the tokens of the list spanning [k0, stop):
     atoms add to n (nil does not, and a wide int's second token does
     not), nested lists to p, and an improper spine's tail — an atom in
     the canonical stream — to n: the counts {!Sexp.Metrics.np} gives
     for the datum. *)
  let fresh_np toks k0 stop =
    let n = ref 0 and p = ref (-1) in
    for k = k0 to stop - 1 do
      let tag = Array.unsafe_get toks k land 7 in
      n := !n + ((0b1001110 lsr tag) land 1);
      p := !p + ((0b0110000 lsr tag) land 1)
    done;
    fresh b ~n:!n ~p:!p
  in
  let recent = Array.make (2 * recent_size) 0 in
  (* The key offset of the span [k0, stop) of hash [h], added with id
     -1 when new. *)
  let key_of toks k0 stop h =
    let len = stop - k0 and top = h lsr 33 in
    let r = 2 * ((h lsr 20) land (recent_size - 1)) in
    let e = Array.unsafe_get recent (r + 1) in
    if e > 0 && Array.unsafe_get recent r = h && key_matches toks k0 len (e - 1) then e - 1
    else begin
      let found = find toks k0 len top in
      let koff = if found < 0 then !used else found in
      if found < 0 then add_key (-1 - found) toks k0 len top (-1);
      Array.unsafe_set recent r h;
      Array.unsafe_set recent (r + 1) (koff + 1);
      koff
    end
  in
  Scratch.use datum_pool (start datum_pool slen 8192) @@ fun kd ->
  (* The list id of datum [d], or -1 for an atom.  [result] (a cons or
     rplac result) is a fresh cell, however familiar its shape, and
     takes over its shape's key — the replace semantics of [run].  A new
     key holds id -1 until it is given one. *)
  let id_of bt toks d ~result =
    let k0 = B.datum_start bt d in
    let tag = Array.unsafe_get toks k0 land 7 in
    if tag <> 4 && tag <> 5 then -1
    else
    let stop = B.datum_stop bt d and same = B.datum_same bt d in
    let koff =
      if same >= 0 then A.unsafe_get (kd.buf : ints) same
      else key_of toks k0 stop (B.datum_hash bt d)
    in
    A.unsafe_set (kd.buf : ints) d koff;
    let key : ints = kl.buf in
    let id = A.unsafe_get key (koff + 1) in
    if result || id < 0 then begin
      let id = fresh_np toks k0 stop in
      A.unsafe_set key (koff + 1) id;
      id
    end
    else id
  in
  Binary.iter_batches src (fun bt ->
      let toks = B.tokens bt in
      let datums = B.first_datum bt (B.length bt) in
      if datums > A.dim kd.buf then kd.buf <- A.create Bigarray.int Bigarray.c_layout datums;
      for i = 0 to B.length bt - 1 do
        match B.kind bt i with
        | 0 -> call b (B.nargs bt i)
        | 1 -> return_ b
        | kind ->
          let nargs = B.nargs bt i in
          let d0 = B.first_datum bt i in
          let code = ref (prim_code ~kind ~arity:nargs) in
          for j = 0 to nargs - 1 do
            code := arg b !code j (id_of bt toks (d0 + j) ~result:false)
          done;
          result b !code (id_of bt toks (d0 + nargs) ~result:(kind >= 4))
      done)
