type arg =
  | Atom of Sexp.Datum.t
  | List of { id : int; chained : bool }

type pevent =
  | Pprim of {
      prim : Event.prim;
      args : arg list;
      result : arg;
    }
  | Pcall of { name : string; nargs : int }
  | Preturn of { name : string }

type t = {
  events : pevent array;
  distinct_lists : int;
  stats : Capture.stats;
  np_by_id : (int * int) array;
}

module Dtbl = Hashtbl.Make (struct
    type t = Sexp.Datum.t

    let equal = Sexp.Datum.equal
    let hash = Sexp.Datum.hash
  end)

let run capture =
  (* [ids] maps a list's s-expression form to the id of the most recently
     created object of that shape: structurally identical arguments are
     assumed to be that latest object (the thesis's assumption), but a
     cons (or rplac) *result* is always a fresh cell, however familiar it
     looks — without this, recurring small numeric lists stitch unrelated
     structures together. *)
  let ids = Dtbl.create 1024 in
  let nps = ref [] in
  let next = ref 0 in
  let fresh_id d =
    let id = !next in
    incr next;
    Dtbl.replace ids d id;
    nps := Sexp.Metrics.np d :: !nps;
    id
  in
  let id_of d =
    match Dtbl.find_opt ids d with
    | Some id -> id
    | None -> fresh_id d
  in
  (* The previous primitive's list result id, for the chaining flag. *)
  let prev_result = ref None in
  let classify prev (d : Sexp.Datum.t) =
    match d with
    | Cons _ ->
      let id = id_of d in
      List { id; chained = prev = Some id }
    | Nil | Sym _ | Int _ | Str _ -> Atom d
  in
  let classify_result (prim : Event.prim) (d : Sexp.Datum.t) =
    match d, prim with
    | Cons _, (Event.Cons | Event.Rplaca | Event.Rplacd) ->
      List { id = fresh_id d; chained = false }
    | _, _ -> classify None d
  in
  let events =
    Array.map
      (fun (e : Event.t) ->
         match e with
         | Call { name; nargs } -> Pcall { name; nargs }
         | Return { name } -> Preturn { name }
         | Prim { prim; args; result } ->
           let prev = !prev_result in
           let args = List.map (classify prev) args in
           let result = classify_result prim result in
           prev_result := (match result with List { id; _ } -> Some id | Atom _ -> None);
           Pprim { prim; args; result })
      (Capture.events capture)
  in
  {
    events;
    distinct_lists = !next;
    stats = Capture.stats capture;
    np_by_id = Array.of_list (List.rev !nps);
  }

(* The span table's storage: kept per domain between scans, off the
   OCaml heap (see {!Scratch}). *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let slot_pool = Scratch.create Bigarray.int
let key_pool = Scratch.create Bigarray.int

(* [scan] is the id-assignment pass of [run] off the flat batches of a
   mapped binary trace — the one implementation behind [run_source] and
   [scan_source].  The token stream of a batch is canonical — two datums
   are structurally equal iff their token spans are identical (intern
   ids are first-occurrence indices, fixed for the whole stream) — so
   list identity is assigned from span equality alone and no datum is
   ever built: the decoder hands over each argument's span bounds and
   hash, and a fresh id's (n, p) is counted off its tokens.

   Per event one callback fires on the live batch.  A primitive reports
   its wire kind, argument count and the previous primitive's list
   result id ([-1] for none), with two scratch arrays valid only during
   the call: [ids.(j)] is argument j's list id ([-1] for an atom),
   [ids.(nargs)] the result's, and [toks.(j)] the token start of each,
   so a consumer can materialise atoms.  [entry ~n ~p] turns each fresh
   id's metrics into its slot of the returned id-indexed table. *)
let scan ~entry ~call ~return_ ~prim src =
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
     storage that fits. *)
  let slen = Binary.source_length src in
  let rec pow2 c = if c >= slen then c else pow2 (2 * c) in
  let start kept bound default = if kept = 0 then default else min kept bound in
  Scratch.use slot_pool (3 * start (Scratch.kept_length slot_pool / 3) (pow2 1024) 1024)
  @@ fun sl ->
  Scratch.use key_pool (start (Scratch.kept_length key_pool) (3 * slen + 1) 65536)
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
  let table = ref [||] in
  let next = ref 0 in
  (* Same replace semantics as [run]: a fresh id always advances the
     counter and takes over its shape's table slot. *)
  let fresh_id toks k0 stop h =
    if 2 * (!filled + 1) >= !cap then grow ();
    let id = !next in
    incr next;
    let i = find_slot toks k0 stop h in
    if A.get sl.buf i = -1 then begin
      A.set sl.buf i h;
      add_key i toks k0 stop;
      incr filled
    end;
    A.set sl.buf (i + 1) id;
    n_acc := 0;
    p_acc := 0;
    ignore (np_spine toks k0 : int);
    let e = entry ~n:!n_acc ~p:!p_acc in
    if id = Array.length !table then begin
      let g = Array.make (max 1024 (2 * id)) e in
      Array.blit !table 0 g 0 id;
      table := g
    end;
    !table.(id) <- e;
    id
  in
  let id_of toks k0 stop h =
    let i = find_slot toks k0 stop h in
    if A.get sl.buf i = -1 then fresh_id toks k0 stop h else A.get sl.buf (i + 1)
  in
  let ids = ref (Array.make 8 (-1)) and starts = ref (Array.make 8 0) in
  let prev_result = ref (-1) in
  Binary.iter_batches src (fun b ->
      let toks = B.tokens b in
      for i = 0 to B.length b - 1 do
        match B.kind b i with
        | 0 -> call b i
        | 1 -> return_ b i
        | kind ->
          let nargs = B.nargs b i in
          if nargs >= Array.length !ids then begin
            ids := Array.make (2 * nargs + 1) (-1);
            starts := Array.make (2 * nargs + 1) 0
          end;
          let ids = !ids and starts = !starts in
          let d0 = B.first_datum b i in
          for j = 0 to nargs do
            let d = d0 + j in
            let k0 = B.datum_start b d in
            starts.(j) <- k0;
            ids.(j) <-
              (match toks.(2 * k0) with
               | 4 | 5 ->
                 let stop = B.datum_start b (d + 1) and h = B.datum_hash b d in
                 (* a cons/rplac result is a fresh cell, however familiar
                    its shape — mirrors [classify_result] *)
                 if j = nargs && kind >= 4 then fresh_id toks k0 stop h
                 else id_of toks k0 stop h
               | _ -> -1)
          done;
          let prev = !prev_result in
          prev_result := ids.(nargs);
          prim b ~kind ~nargs ~prev ids starts
      done);
  Array.sub !table 0 !next

let run_source src =
  let module B = Binary.Batch in
  (* the chunk headers give the event count up front *)
  let total = (Binary.header_stats src).Binary.h_events in
  let evs = Array.make total (Preturn { name = "" }) in
  let n_ev = ref 0 in
  let push e =
    if !n_ev < total then evs.(!n_ev) <- e;
    incr n_ev
  in
  let functions = ref 0 and primitives = ref 0 in
  let depth = ref 0 and max_depth = ref 0 in
  let atom b k : Sexp.Datum.t =
    match B.tok_tag b k with
    | 0 -> Nil
    | 1 -> Sym (B.tok_str b k)
    | 2 -> Int (B.tok_val b k)
    | _ -> Str (B.tok_str b k)
  in
  let arg b ids toks j ~chained =
    if ids.(j) < 0 then Atom (atom b toks.(j)) else List { id = ids.(j); chained }
  in
  let rec args b ids toks ~prev j nargs =
    if j = nargs then []
    else
      let a = arg b ids toks j ~chained:(ids.(j) = prev) in
      a :: args b ids toks ~prev (j + 1) nargs
  in
  let np_by_id =
    scan src
      ~entry:(fun ~n ~p -> (n, p))
      ~call:(fun b i ->
          incr functions;
          incr depth;
          if !depth > !max_depth then max_depth := !depth;
          push (Pcall { name = B.name b i; nargs = B.nargs b i }))
      ~return_:(fun b i ->
          decr depth;
          push (Preturn { name = B.name b i }))
      ~prim:(fun b ~kind ~nargs ~prev ids toks ->
          incr primitives;
          let prim : Event.prim =
            match kind with
            | 2 -> Car
            | 3 -> Cdr
            | 4 -> Cons
            | 5 -> Rplaca
            | _ -> Rplacd
          in
          let args = args b ids toks ~prev 0 nargs in
          push (Pprim { prim; args; result = arg b ids toks nargs ~chained:false }))
  in
  if !n_ev <> total then
    raise (Binary.Corrupt { offset = 0; reason = "event count changed while reading" });
  {
    events = evs;
    distinct_lists = Array.length np_by_id;
    stats =
      { Capture.functions = !functions;
        primitives = !primitives;
        max_depth = !max_depth };
    np_by_id;
  }

(* [scan_source] reports each primitive's list ids as they are
   assigned; only the drawable sizes survive as data, in the same id
   order as [run]/[run_source] produce. *)
let scan_source ~call ~return_ ~prim src =
  scan src
    ~entry:(fun ~n ~p -> max 1 (n + p))
    ~call:(fun b i -> call ~nargs:(Binary.Batch.nargs b i))
    ~return_:(fun _ _ -> return_ ())
    ~prim:(fun _ ~kind ~nargs ~prev ids _ -> prim ~kind ~nargs ~prev ids)

let prim_refs t =
  let refs = ref [] in
  Array.iter
    (function
      | Pprim { args; result; _ } ->
        List.iter (function List { id; _ } -> refs := id :: !refs | Atom _ -> ()) args;
        (match result with List { id; _ } -> refs := id :: !refs | Atom _ -> ())
      | Pcall _ | Preturn _ -> ())
    t.events;
  Array.of_list (List.rev !refs)
