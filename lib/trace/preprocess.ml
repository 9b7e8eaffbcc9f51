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
   list identity can be assigned from span equality alone, and a datum
   is materialised here only when a list shape is seen for the first
   time (its (n, p) metrics need the tree).

   Per event one callback fires on the live batch.  A primitive reports
   its wire kind, argument count and the previous primitive's list
   result id ([-1] for none), with two scratch arrays valid only during
   the call: [ids.(j)] is argument j's list id ([-1] for an atom),
   [ids.(nargs)] the result's, and [toks.(j)] the token start of each,
   so a consumer can materialise atoms.  [entry ~n ~p] turns each fresh
   id's metrics into its slot of the returned id-indexed table. *)
let scan ~entry ~call ~return_ ~prim src =
  let module B = Binary.Batch in
  (* Open-addressing span -> latest-id table, replacing {!Dtbl}.  Keys
     are the token span copied as an interleaved [tag, val, ...] int
     array; probes compare the live span against stored keys without
     allocating. *)
  let cap = ref 4096 in
  let mask = ref (!cap - 1) in
  let keys = ref (Array.make !cap [||]) in
  let kids = ref (Array.make !cap 0) in
  let filled = ref 0 in
  let mix h x = (h lxor x) * 16777619 land max_int in
  let hash_key key = Array.fold_left mix 0x811c9dc5 key in
  let hash_span b k stop =
    let h = ref 0x811c9dc5 in
    for i = k to stop - 1 do
      h := mix (mix !h (B.tok_tag b i)) (B.tok_val b i)
    done;
    !h
  in
  let key_matches key b k stop =
    Array.length key = 2 * (stop - k)
    && (let ok = ref true and j = ref 0 in
        let i = ref k in
        while !ok && !i < stop do
          if key.(!j) <> B.tok_tag b !i || key.(!j + 1) <> B.tok_val b !i then
            ok := false;
          incr i;
          j := !j + 2
        done;
        !ok)
  in
  let find_slot b k stop =
    let s = ref (hash_span b k stop land !mask) in
    let continue = ref true in
    while !continue do
      let key = !keys.(!s) in
      if Array.length key = 0 || key_matches key b k stop then continue := false
      else s := (!s + 1) land !mask
    done;
    !s
  in
  let grow () =
    let ncap = 2 * !cap in
    let nmask = ncap - 1 in
    let nkeys = Array.make ncap [||] and nids = Array.make ncap 0 in
    Array.iteri
      (fun i key ->
         if Array.length key > 0 then begin
           let s = ref (hash_key key land nmask) in
           while Array.length nkeys.(!s) > 0 do
             s := (!s + 1) land nmask
           done;
           nkeys.(!s) <- key;
           nids.(!s) <- !kids.(i)
         end)
      !keys;
    keys := nkeys;
    kids := nids;
    cap := ncap;
    mask := nmask
  in
  let key_of_span b k stop =
    let a = Array.make (2 * (stop - k)) 0 in
    let j = ref 0 in
    for i = k to stop - 1 do
      a.(!j) <- B.tok_tag b i;
      a.(!j + 1) <- B.tok_val b i;
      j := !j + 2
    done;
    a
  in
  let table = ref [||] in
  let next = ref 0 in
  (* Same replace semantics as [run]: a fresh id always advances the
     counter and takes over its shape's table slot. *)
  let fresh_id b k stop =
    if 2 * (!filled + 1) >= !cap then grow ();
    let id = !next in
    incr next;
    let slot = find_slot b k stop in
    if Array.length !keys.(slot) = 0 then begin
      !keys.(slot) <- key_of_span b k stop;
      incr filled
    end;
    !kids.(slot) <- id;
    let n, p = Sexp.Metrics.np (fst (B.datum b k)) in
    let e = entry ~n ~p in
    if id = Array.length !table then begin
      let g = Array.make (max 1024 (2 * id)) e in
      Array.blit !table 0 g 0 id;
      table := g
    end;
    !table.(id) <- e;
    id
  in
  let id_of b k stop =
    let slot = find_slot b k stop in
    if Array.length !keys.(slot) = 0 then fresh_id b k stop else !kids.(slot)
  in
  let ids = ref (Array.make 8 (-1)) and toks = ref (Array.make 8 0) in
  let prev_result = ref (-1) in
  Binary.iter_batches src (fun b ->
      for i = 0 to B.length b - 1 do
        match B.kind b i with
        | 0 -> call b i
        | 1 -> return_ b i
        | kind ->
          let nargs = B.nargs b i in
          if nargs >= Array.length !ids then begin
            ids := Array.make (2 * nargs + 1) (-1);
            toks := Array.make (2 * nargs + 1) 0
          end;
          let ids = !ids and toks = !toks in
          let k = ref (B.tok_start b i) in
          for j = 0 to nargs do
            let k0 = !k in
            let stop = B.skip_tree b k0 in
            k := stop;
            toks.(j) <- k0;
            ids.(j) <-
              (match B.tok_tag b k0 with
               | 4 | 5 ->
                 (* a cons/rplac result is a fresh cell, however familiar
                    its shape — mirrors [classify_result] *)
                 if j = nargs && kind >= 4 then fresh_id b k0 stop
                 else id_of b k0 stop
               | _ -> -1)
          done;
          let prev = !prev_result in
          prev_result := ids.(nargs);
          prim b ~kind ~nargs ~prev ids toks
      done);
  Array.sub !table 0 !next

let run_source src =
  let module B = Binary.Batch in
  (* growable pevent accumulator (total event count is not known until
     the last chunk header) *)
  let evs = ref (Array.make 1024 (Preturn { name = "" })) in
  let n_ev = ref 0 in
  let push e =
    if !n_ev = Array.length !evs then begin
      let g = Array.make (2 * !n_ev) e in
      Array.blit !evs 0 g 0 !n_ev;
      evs := g
    end;
    !evs.(!n_ev) <- e;
    incr n_ev
  in
  let functions = ref 0 and primitives = ref 0 in
  let depth = ref 0 and max_depth = ref 0 in
  let arg b ids toks j ~chained =
    if ids.(j) < 0 then Atom (fst (B.datum b toks.(j)))
    else List { id = ids.(j); chained }
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
  {
    events = Array.sub !evs 0 !n_ev;
    distinct_lists = Array.length np_by_id;
    stats =
      { Capture.functions = !functions;
        primitives = !primitives;
        max_depth = !max_depth };
    np_by_id;
  }

(* [scan_source] folds each primitive's ids into positional bitmasks
   over its argument list, so a consumer can build a flat representation
   without any [arg list] existing; only the drawable sizes survive as
   data, in the same id order as [run]/[run_source] produce. *)
let scan_source ~call ~return_ ~prim src =
  scan src
    ~entry:(fun ~n ~p -> max 1 (n + p))
    ~call:(fun b i -> call ~nargs:(Binary.Batch.nargs b i))
    ~return_:(fun _ _ -> return_ ())
    ~prim:(fun _ ~kind ~nargs ~prev ids _ ->
        if nargs > 24 then
          invalid_arg "Preprocess.scan_source: more than 24 arguments";
        let list_mask = ref 0 and chained_mask = ref 0 in
        for j = 0 to nargs - 1 do
          if ids.(j) >= 0 then begin
            list_mask := !list_mask lor (1 lsl j);
            if ids.(j) = prev then chained_mask := !chained_mask lor (1 lsl j)
          end
        done;
        prim ~kind ~arity:nargs ~list_mask:!list_mask
          ~chained_mask:!chained_mask ~result_list:(ids.(nargs) >= 0))

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
