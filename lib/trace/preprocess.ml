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
   known until the scan ends.  Both grow in the domain's kept storage
   (see {!Scratch}) and are copied out at their exact length, so a
   worker that serves job after job allocates only what the form keeps.
   The reference stream, the longest array of the form, is 32-bit ids
   off the OCaml heap: as OCaml ints, kept and copied out, it raised
   the service's peak memory on cold misses by a quarter. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ref_pool = Scratch.create Bigarray.int32
let np_pool = Scratch.create Bigarray.int

(* A pool's starting length: the kept length, capped by [bound] (what
   the input can need), or [default] on the domain's first use. *)
let start pool bound default =
  match Scratch.kept_length pool with 0 -> default | kept -> max 1 (min kept bound)

type builder = {
  codes : int array;
  mutable events : int;
  refs : (int32, Bigarray.int32_elt) Scratch.lease;
  mutable n_refs : int;
  nps : (int, Bigarray.int_elt) Scratch.lease;
  mutable ids : int;             (* ids assigned; id i's (n, p) at 2i *)
  mutable prev : int;            (* the previous primitive's list result; -1 none *)
  mutable scratch : int array;   (* a primitive's list ids, see [prim] *)
  mutable functions : int;
  mutable primitives : int;
  mutable depth : int;
  mutable max_depth : int;
}

(* Replace a kept buffer by one that holds element [i], at least
   twice as long. *)
let grow (type a b) (l : (a, b) Scratch.lease) i =
  let module A = Bigarray.Array1 in
  let n = A.dim l.buf in
  let g = A.create (A.kind l.buf) Bigarray.c_layout (max (i + 1) (2 * n)) in
  A.blit l.buf (A.sub g 0 n);
  l.buf <- g

let[@inline] room l i = if i >= Bigarray.Array1.dim l.Scratch.buf then grow l i

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
  room b.nps ((2 * id) + 1);
  let nps : ints = b.nps.buf in
  Bigarray.Array1.unsafe_set nps (2 * id) n;
  Bigarray.Array1.unsafe_set nps ((2 * id) + 1) p;
  b.ids <- id + 1;
  id

(* An array of at least [nargs + 1] slots for a primitive's list ids. *)
let scratch b nargs =
  if nargs >= Array.length b.scratch then b.scratch <- Array.make (2 * nargs + 1) (-1);
  b.scratch

(* A primitive whose list ids are in [ids]: [ids.(j)] for argument [j],
   [ids.(nargs)] for the result, [-1] for an atom.  An argument is
   chained when it is the previous primitive's list result. *)
let prim b ~kind ~nargs ids =
  let code = ref (prim_code ~kind ~arity:nargs) in
  for j = 0 to nargs do
    let id = ids.(j) in
    if id >= 0 then begin
      code :=
        if j < nargs then add_list_arg !code j ~chained:(id = b.prev) else !code lor 8;
      room b.refs b.n_refs;
      let refs : refs = b.refs.buf in
      Bigarray.Array1.unsafe_set refs b.n_refs (Int32.of_int id);
      b.n_refs <- b.n_refs + 1
    end
  done;
  b.prev <- ids.(nargs);
  b.primitives <- b.primitives + 1;
  event b !code

(* [build ~events ~bound f] runs [f] on a builder for [events] events
   whose input bounds the reference stream and the (n, p) table by
   [bound] ints each.  A domain's first build sizes them from the event
   count (traces hold about 1.4 references and at most a quarter of a
   distinct list per event), so they grow a few times at most. *)
let build ~events ~bound f =
  let module A = Bigarray.Array1 in
  Scratch.use ref_pool (start ref_pool bound (max 1 events)) @@ fun refs ->
  Scratch.use np_pool (start np_pool bound (max 2 (events / 2))) @@ fun nps ->
  let b =
    { codes = Array.make events 0; events = 0; refs; n_refs = 0; nps; ids = 0; prev = -1;
      scratch = Array.make 8 (-1); functions = 0; primitives = 0; depth = 0;
      max_depth = 0 }
  in
  f b;
  if b.events <> events then
    raise (Binary.Corrupt { offset = 0; reason = "event count changed while reading" });
  { codes = b.codes;
    refs =
      (let r = A.create Bigarray.int32 Bigarray.c_layout b.n_refs in
       A.blit (A.sub b.refs.buf 0 b.n_refs) r;
       r);
    np = Array.init (2 * b.ids) (A.unsafe_get b.nps.buf);
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
       | Prim { prim = p; args; result } ->
         let nargs = List.length args in
         let s = scratch b nargs in
         List.iteri (fun j d -> s.(j) <- id_of d) args;
         s.(nargs) <-
           (match result, p with
            | Cons _, (Cons | Rplaca | Rplacd) -> fresh_id result
            | _ -> id_of result);
         prim b ~kind:(wire_kind p) ~nargs s)
    (Capture.events capture)

(* ---- off a binary source: list identity by token spans ---- *)

(* The span table's storage: kept per domain between scans, off the
   OCaml heap (see {!Scratch}). *)
let slot_pool = Scratch.create Bigarray.int
let key_pool = Scratch.create Bigarray.int

(* [run_source] is [run] off the flat batches of a binary trace.  The
   token stream of a batch is canonical — two datums are structurally
   equal iff their token spans are identical (intern ids are
   first-occurrence indices, fixed for the whole stream) — so list
   identity is assigned from span equality alone and no datum is ever
   built: the decoder hands over each argument's span bounds and hash,
   and a fresh id's (n, p) is counted off its tokens. *)
let run_source src =
  let module B = Binary.Batch in
  let module A = Bigarray.Array1 in
  (* Open-addressing span -> latest-id table, replacing {!Dtbl}.  Slot
     s is three ints at [3s] of the slot storage: the span's full hash
     ([-1]: empty), its latest id, and the offset of its key.  A key is
     the span's interleaved [tag, val, ...] tokens, stored as
     [len; tokens] in an append-only arena.  A probe compares stored
     hashes, reads a key only on a hash match, and then compares it
     exactly.

     Both stores are the domain's kept storage: a scan clears the slots
     and rewinds the arena, starting at the capacity the last scan
     reached.  The source length bounds what a scan can need — every
     list costs at least two bytes, every token one — so a scan of a
     far smaller trace lets {!Scratch.use} replace the kept storage by
     storage that fits; the same bound caps the reference stream and
     the (n, p) table. *)
  let slen = Binary.source_length src in
  let rec pow2 c = if c >= slen then c else pow2 (2 * c) in
  Scratch.use slot_pool (start slot_pool (3 * pow2 1024) (3 * 1024))
  @@ fun sl ->
  Scratch.use key_pool (start key_pool (3 * slen + 1) 65536)
  @@ fun kl ->
  A.fill sl.buf (-1);
  let cap = ref (A.dim sl.buf / 3) in
  let mask = ref (!cap - 1) in
  let used = ref 0 in
  let filled = ref 0 in
  let key_matches toks koff k0 stop =
    let key : ints = kl.buf in
    let len = 2 * (stop - k0) in
    A.get key koff = len
    && (let ok = ref true and j = ref 0 in
        let base = 2 * k0 and off = koff + 1 in
        while !ok && !j < len do
          if A.unsafe_get key (off + !j) <> Array.unsafe_get toks (base + !j) then
            ok := false;
          incr j
        done;
        !ok)
  in
  let find_slot toks k0 stop h =
    let slots : ints = sl.buf and mask = !mask in
    let s = ref (h land mask) in
    let continue = ref true in
    while !continue do
      let i = 3 * !s in
      let sh = A.unsafe_get slots i in
      if sh = -1 || (sh = h && key_matches toks (A.unsafe_get slots (i + 2)) k0 stop) then
        continue := false
      else s := (!s + 1) land mask
    done;
    3 * !s
  in
  let grow () =
    let ncap = 2 * !cap in
    let nmask = ncap - 1 in
    let old : ints = sl.buf in
    let nslots : ints = A.create Bigarray.int Bigarray.c_layout (3 * ncap) in
    A.fill nslots (-1);
    for i = 0 to !cap - 1 do
      let h = A.get old (3 * i) in
      if h <> -1 then begin
        let s = ref (h land nmask) in
        while A.get nslots (3 * !s) <> -1 do
          s := (!s + 1) land nmask
        done;
        for f = 0 to 2 do
          A.set nslots ((3 * !s) + f) (A.get old ((3 * i) + f))
        done
      end
    done;
    sl.buf <- nslots;
    cap := ncap;
    mask := nmask
  in
  (* store the key of a span in slot [i], doubling the arena when full *)
  let add_key i toks k0 stop =
    let len = 2 * (stop - k0) in
    let need = !used + len + 1 in
    if need > A.dim kl.buf then begin
      let g : ints = A.create Bigarray.int Bigarray.c_layout (max need (2 * A.dim kl.buf)) in
      A.blit (A.sub kl.buf 0 !used) (A.sub g 0 !used);
      kl.buf <- g
    end;
    let key : ints = kl.buf and base = 2 * k0 and off = !used + 1 in
    A.set key !used len;
    for j = 0 to len - 1 do
      A.unsafe_set key (off + j) (Array.unsafe_get toks (base + j))
    done;
    A.set sl.buf (i + 2) !used;
    used := need
  in
  (* (n, p) of §3.3.1 off the tokens of the list at [k]: atoms add to
     n, nested lists to p, and an improper spine's tail — an atom in
     the canonical stream — to n: the counts {!Sexp.Metrics.np} gives
     for the datum. *)
  let n_acc = ref 0 and p_acc = ref 0 in
  let rec np_tree toks k =
    match toks.(2 * k) with
    | 0 -> k + 1
    | 1 | 2 | 3 -> incr n_acc; k + 1
    | _ -> incr p_acc; np_spine toks k
  and np_spine toks k =
    let improper = toks.(2 * k) = 5 in
    let count = toks.(2 * k + 1) in
    let k = ref (k + 1) in
    for _ = 1 to count do k := np_tree toks !k done;
    if improper then begin incr n_acc; !k + 1 end else !k
  in
  (* the chunk headers give the event count up front *)
  let events = (Binary.header_stats src).Binary.h_events in
  build ~events ~bound:slen @@ fun b ->
  (* Same replace semantics as [run]: a fresh id always advances the
     counter and takes over its shape's table slot. *)
  let fresh_id toks k0 stop h =
    if 2 * (!filled + 1) >= !cap then grow ();
    let i = find_slot toks k0 stop h in
    if A.get sl.buf i = -1 then begin
      A.set sl.buf i h;
      add_key i toks k0 stop;
      incr filled
    end;
    n_acc := 0;
    p_acc := 0;
    ignore (np_spine toks k0 : int);
    let id = fresh b ~n:!n_acc ~p:!p_acc in
    A.set sl.buf (i + 1) id;
    id
  in
  let id_of toks k0 stop h =
    let i = find_slot toks k0 stop h in
    if A.get sl.buf i = -1 then fresh_id toks k0 stop h else A.get sl.buf (i + 1)
  in
  Binary.iter_batches src (fun bt ->
      let toks = B.tokens bt in
      for i = 0 to B.length bt - 1 do
        match B.kind bt i with
        | 0 -> call b (B.nargs bt i)
        | 1 -> return_ b
        | kind ->
          let nargs = B.nargs bt i in
          let ids = scratch b nargs in
          let d0 = B.first_datum bt i in
          for j = 0 to nargs do
            let d = d0 + j in
            let k0 = B.datum_start bt d in
            ids.(j) <-
              (match toks.(2 * k0) with
               | 4 | 5 ->
                 let stop = B.datum_start bt (d + 1) and h = B.datum_hash bt d in
                 (* a cons/rplac result is a fresh cell, however familiar
                    its shape — as in [run] *)
                 if j = nargs && kind >= 4 then fresh_id toks k0 stop h
                 else id_of toks k0 stop h
               | _ -> -1)
          done;
          prim b ~kind ~nargs ids
      done)
