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
  (* Open-addressing span -> latest-id table, replacing {!Dtbl}.  Slot
     s is three ints at [3s] of one flat array: the span's full hash
     ([-1]: empty), its latest id, and where its key is ([block lsl 17
     lor offset]).  A key is the span's interleaved [tag, val, ...]
     tokens, stored as [len; tokens] in an append-only arena of 64k-int
     blocks, so a key is written once and never copied (a single
     doubling array allocated half as much again per scan, and raised a
     cold service's peak RSS by a tenth).  A probe compares stored
     hashes, reads a key only on a hash match, and then compares it
     exactly. *)
  let cap = ref 1024 in
  let mask = ref (!cap - 1) in
  let slots = ref (Array.make (3 * !cap) (-1)) in
  let blocks = ref [||] and nblocks = ref 0 and used = ref 0 in
  let filled = ref 0 in
  let key_matches toks kref k0 stop =
    let key = !blocks.(kref lsr 17) and off = kref land 0x1ffff in
    let len = 2 * (stop - k0) in
    key.(off) = len
    && (let ok = ref true and j = ref 0 in
        let base = 2 * k0 and off = off + 1 in
        while !ok && !j < len do
          if Array.unsafe_get key (off + !j) <> Array.unsafe_get toks (base + !j) then
            ok := false;
          incr j
        done;
        !ok)
  in
  let find_slot toks k0 stop h =
    let slots = !slots and mask = !mask in
    let s = ref (h land mask) in
    let continue = ref true in
    while !continue do
      let i = 3 * !s in
      let sh = slots.(i) in
      if sh = -1 || (sh = h && key_matches toks slots.(i + 2) k0 stop) then
        continue := false
      else s := (!s + 1) land mask
    done;
    3 * !s
  in
  let grow () =
    let ncap = 2 * !cap in
    let nmask = ncap - 1 in
    let nslots = Array.make (3 * ncap) (-1) in
    let old = !slots in
    for i = 0 to !cap - 1 do
      let h = old.(3 * i) in
      if h <> -1 then begin
        let s = ref (h land nmask) in
        while nslots.(3 * !s) <> -1 do
          s := (!s + 1) land nmask
        done;
        Array.blit old (3 * i) nslots (3 * !s) 3
      end
    done;
    slots := nslots;
    cap := ncap;
    mask := nmask
  in
  (* store the key of a span in slot [i]; a key longer than a block
     gets a block of its own, at offset 0 *)
  let add_key i toks k0 stop =
    let len = 2 * (stop - k0) in
    if !nblocks = 0 || !used + len + 1 > Array.length !blocks.(!nblocks - 1) then begin
      if !nblocks = Array.length !blocks then begin
        let g = Array.make (max 16 (2 * !nblocks)) [||] in
        Array.blit !blocks 0 g 0 !nblocks;
        blocks := g
      end;
      !blocks.(!nblocks) <- Array.make (max 65536 (len + 1)) 0;
      incr nblocks;
      used := 0
    end;
    let key = !blocks.(!nblocks - 1) in
    key.(!used) <- len;
    Array.blit toks (2 * k0) key (!used + 1) len;
    !slots.(i + 2) <- ((!nblocks - 1) lsl 17) lor !used;
    used := !used + len + 1
  in
  (* (n, p) of §3.3.1 off the tokens of the list at [k]: atoms add to
     n, nested lists to p, and the list tail of an improper spine
     continues that spine — the counts {!Sexp.Metrics.np} gives for the
     datum. *)
  let n_acc = ref 0 and p_acc = ref 0 in
  let rec np_tree toks k =
    match toks.(2 * k) with
    | 0 -> k + 1
    | 1 | 2 | 3 -> incr n_acc; k + 1
    | _ -> incr p_acc; np_spine toks k
  and np_spine toks k =
    let count = toks.(2 * k + 1) in
    let improper = toks.(2 * k) = 5 in
    let k = ref (k + 1) in
    for _ = 1 to count do k := np_tree toks !k done;
    if not improper then !k
    else
      match toks.(2 * !k) with
      | 4 | 5 -> np_spine toks !k
      | _ -> np_tree toks !k
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
    if !slots.(i) = -1 then begin
      !slots.(i) <- h;
      add_key i toks k0 stop;
      incr filled
    end;
    !slots.(i + 1) <- id;
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
    if !slots.(i) = -1 then fresh_id toks k0 stop h else !slots.(i + 1)
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
