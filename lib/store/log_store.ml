(* Log-structured store: an append-only segment log under an in-memory
   indirection table.

   On-disk, a segment is

     "SMSG1\n" record*

   and a record — one commit group — is

     [varint paylen] [8-byte FNV-1a64 of payload] [payload]
     payload := [varint nops] op*
     op := 0x01 [varint klen] key [varint vlen] value [8-byte stamp]   put
         | 0x02 [varint klen] key                                      delete
         | 0x03                                                        epoch reset

   the same length-prefix-plus-checksum framing discipline as the
   Trace.Binary v2 chunk format: recovery verifies each record as it
   replays it, and the first torn or corrupt record marks the
   truncation point.  The epoch reset op heads a compacted segment and
   means "every older segment is superseded" — it is what makes the
   rename-then-unlink retirement crash-safe without resurrecting
   deleted keys.

   The index maps key -> (segment, value offset/length, value hash, op
   bytes, stamp): lookups never touch the disk, gets are one
   positioned read re-verified against the stored hash.  Accounting is
   in encoded-op bytes: live_bytes + dead_bytes is exactly the op
   bytes appended and not yet compacted away (record framing is
   excluded — it is reclaimed by the same copying pass). *)

type config = {
  segment_bytes : int;
  compact_ratio : float;
  max_bytes : int option;
  ttl : float option;
}

let default_config =
  { segment_bytes = 1 lsl 22; compact_ratio = 0.5; max_bytes = None; ttl = None }

let magic = "SMSG1\n"
let magic_len = String.length magic

(* ---- FNV-1a 64 (the Trace.Binary checksum) ---- *)

let fnv_prime = 0x100000001b3L
let fnv_init = 0xcbf29ce484222325L
let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv_sub s pos len =
  let h = ref fnv_init in
  for i = pos to pos + len - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let fnv_bytes b pos len =
  let h = ref fnv_init in
  for i = pos to pos + len - 1 do
    h := fnv_byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let add_hash64 buf h =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical h (8 * (7 - i))) land 0xff))
  done

let read_hash64 s pos =
  let h = ref 0L in
  for i = pos to pos + 7 do
    h := Int64.logor (Int64.shift_left !h 8) (Int64.of_int (Char.code s.[i]))
  done;
  !h

(* ---- varints ---- *)

let put_varint buf n =
  let n = ref n in
  while !n < 0 || !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let varint_len n =
  let n = ref n and l = ref 1 in
  while !n < 0 || !n >= 0x80 do incr l; n := !n lsr 7 done;
  !l

(* [None] on a varint running past [limit] (a torn tail). *)
let get_varint s pos limit =
  let n = ref 0 and shift = ref 0 and continue = ref true and ok = ref true in
  while !continue do
    if !pos >= limit || !shift > Sys.int_size - 1 then begin
      ok := false; continue := false
    end
    else begin
      let c = Char.code s.[!pos] in
      incr pos;
      n := !n lor ((c land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := c land 0x80 <> 0
    end
  done;
  if !ok then Some !n else None

(* ---- op encoding ---- *)

let op_put = '\x01'
let op_delete = '\x02'
let op_reset = '\x03'

let encoded_put_bytes ~key ~value =
  1 + varint_len (String.length key) + String.length key
  + varint_len (String.length value) + String.length value + 8

let encoded_delete_bytes ~key =
  1 + varint_len (String.length key) + String.length key

type op =
  | Put of string * string * float
  | Delete of string
  | Reset

(* Encoded ops parsed back out of a record; [voff] is relative to the
   start of the string being parsed. *)
type parsed_op =
  | P_put of { key : string; voff : int; vlen : int; vhash : int64;
               stamp : float; bytes : int }
  | P_del of { key : string; bytes : int }
  | P_reset

let encode_op buf op =
  match op with
  | Put (k, v, stamp) ->
    Buffer.add_char buf op_put;
    put_varint buf (String.length k);
    Buffer.add_string buf k;
    put_varint buf (String.length v);
    let voff = Buffer.length buf in
    Buffer.add_string buf v;
    add_hash64 buf (Int64.bits_of_float stamp);
    Some voff
  | Delete k ->
    Buffer.add_char buf op_delete;
    put_varint buf (String.length k);
    Buffer.add_string buf k;
    None
  | Reset -> Buffer.add_char buf op_reset; None

(* One record out of [s] at [!pos] (bounded by [limit]).  [Ok (ops, n)]
   advances past it; [Error `End] is a clean end of log, [Error `Bad]
   a torn or corrupt record — the truncation point. *)
let parse_record s pos limit =
  if !pos >= limit then Error `End
  else begin
    let start = !pos in
    match get_varint s pos limit with
    | None -> Error `Bad
    | Some paylen ->
      if paylen < 0 || !pos + 8 + paylen > limit then Error `Bad
      else begin
        let expected = read_hash64 s !pos in
        let payload = !pos + 8 in
        if fnv_sub s payload paylen <> expected then Error `Bad
        else begin
          let p = ref payload in
          let plimit = payload + paylen in
          let bad = ref false in
          let ops = ref [] in
          (match get_varint s p plimit with
           | None -> bad := true
           | Some nops ->
             let i = ref 0 in
             while not !bad && !i < nops do
               incr i;
               if !p >= plimit then bad := true
               else begin
                 let tag = s.[!p] in
                 incr p;
                 if tag = op_put then
                   match get_varint s p plimit with
                   | None -> bad := true
                   | Some klen ->
                     if klen < 0 || !p + klen > plimit then bad := true
                     else begin
                       let key = String.sub s !p klen in
                       p := !p + klen;
                       match get_varint s p plimit with
                       | None -> bad := true
                       | Some vlen ->
                         if vlen < 0 || !p + vlen + 8 > plimit then bad := true
                         else begin
                           let voff = !p in
                           let vhash = fnv_sub s voff vlen in
                           p := !p + vlen;
                           let stamp = Int64.float_of_bits (read_hash64 s !p) in
                           p := !p + 8;
                           ops :=
                             P_put { key; voff; vlen; vhash; stamp;
                                     bytes = 1 + varint_len klen + klen
                                             + varint_len vlen + vlen + 8 }
                             :: !ops
                         end
                     end
                 else if tag = op_delete then
                   match get_varint s p plimit with
                   | None -> bad := true
                   | Some klen ->
                     if klen < 0 || !p + klen > plimit then bad := true
                     else begin
                       let key = String.sub s !p klen in
                       p := !p + klen;
                       ops := P_del { key; bytes = encoded_delete_bytes ~key } :: !ops
                     end
                 else if tag = op_reset then ops := P_reset :: !ops
                 else bad := true
               end
             done;
             if not !bad && !p <> plimit then bad := true);
          if !bad then Error `Bad
          else Ok (List.rev !ops, !pos + 8 + paylen, start)
        end
      end
  end

(* ---- store state ---- *)

(* declared before [t]: the two records share field names and the later
   declaration must be [t]'s so its mutable fields win resolution *)
type stats = {
  segments : int;
  entries : int;
  live_bytes : int;
  dead_bytes : int;
  appends : int;
  recovered_records : int;
  truncated_records : int;
  corrupt_reads : int;
  compactions : int;
  evictions : int;
  write_errors : int;
}

type seg = {
  id : int;
  path : string;
  fd : Unix.file_descr;
  mutable size : int;
}

type entry = {
  e_seg : int;
  e_off : int;      (* absolute file offset of the value bytes *)
  e_len : int;
  e_hash : int64;
  e_bytes : int;    (* encoded op length: the accounting unit *)
  e_stamp : float;
  e_seq : int;
}

type metric_handles = {
  g_segments : Obs.Metric.Gauge.t;
  g_entries : Obs.Metric.Gauge.t;
  g_live : Obs.Metric.Gauge.t;
  g_dead : Obs.Metric.Gauge.t;
  c_appends : Obs.Metric.Counter.t;
  c_recoveries : Obs.Metric.Counter.t;
  c_recovered : Obs.Metric.Counter.t;
  c_truncated : Obs.Metric.Counter.t;
  c_corrupt_reads : Obs.Metric.Counter.t;
  c_compactions : Obs.Metric.Counter.t;
  c_evictions : Obs.Metric.Counter.t;
  c_write_errors : Obs.Metric.Counter.t;
}

type t = {
  dir : string;
  cfg : config;
  clock : unit -> float;
  fault : Fault.Plan.t option;
  lock : Mutex.t;
  index : (string, entry) Hashtbl.t;
  order : (string * int) Queue.t;    (* append order, for size eviction *)
  mutable segs : seg list;           (* ascending id; last = active *)
  mutable seq : int;
  mutable live_bytes : int;
  mutable dead_bytes : int;
  mutable pending : op list;         (* newest first *)
  pending_tbl : (string, string option) Hashtbl.t;
  mutable is_failed : bool;
  mutable closed : bool;
  mutable appends : int;
  mutable recovered_records : int;
  mutable truncated_records : int;
  mutable corrupt_reads : int;
  mutable compactions : int;
  mutable evictions : int;
  mutable write_errors : int;
  metrics : metric_handles option;
}

let resolve_metrics reg =
  let g name help = Obs.Registry.gauge reg ~help name in
  let c name help = Obs.Registry.counter reg ~help name in
  { g_segments = g "small_store_segments" "segment files in the log";
    g_entries = g "small_store_entries" "live entries in the index";
    g_live = g "small_store_live_bytes" "encoded op bytes of live entries";
    g_dead = g "small_store_dead_bytes" "superseded op bytes awaiting compaction";
    c_appends = c "small_store_appends_total" "committed groups appended";
    c_recoveries = c "small_store_recoveries_total" "recovery replays on open";
    c_recovered = c "small_store_recovered_records_total" "records replayed by recovery";
    c_truncated = c "small_store_truncated_records_total"
        "torn/corrupt records dropped by recovery";
    c_corrupt_reads = c "small_store_corrupt_reads_total"
        "value spans that failed their hash on read or compaction (dropped)";
    c_compactions = c "small_store_compactions_total" "copying compactions completed";
    c_evictions = c "small_store_evictions_total" "entries evicted (size bound or TTL)";
    c_write_errors = c "small_store_write_errors_total" "failed or torn appends" }

let with_metrics t f = match t.metrics with None -> () | Some m -> f m

let publish_gauges t =
  with_metrics t (fun m ->
      Obs.Metric.Gauge.set m.g_segments (List.length t.segs);
      Obs.Metric.Gauge.set m.g_entries (Hashtbl.length t.index);
      Obs.Metric.Gauge.set m.g_live t.live_bytes;
      Obs.Metric.Gauge.set m.g_dead t.dead_bytes)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let seg_path dir id = Filename.concat dir (Printf.sprintf "seg-%08d.smsg" id)

let seg_id_of_name name =
  if String.length name = 17
  && String.sub name 0 4 = "seg-" && Filename.check_suffix name ".smsg" then
    int_of_string_opt (String.sub name 4 8)
  else None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_seg dir id =
  let path = seg_path dir id in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  { id; path; fd; size = (Unix.fstat fd).Unix.st_size }

let fresh_seg dir id =
  let s = open_seg dir id in
  if s.size = 0 then begin
    let b = Bytes.of_string magic in
    let n = Unix.write s.fd b 0 (Bytes.length b) in
    if n <> Bytes.length b then raise (Sys_error (s.path ^ ": short write"));
    s.size <- magic_len
  end;
  s

let active t = List.nth t.segs (List.length t.segs - 1)
let find_seg t id = List.find (fun s -> s.id = id) t.segs

let write_all fd path b off len =
  let n = ref off in
  let stop = off + len in
  while !n < stop do
    match Unix.write fd b !n (stop - !n) with
    | 0 -> raise (Sys_error (path ^ ": short write"))
    | k -> n := !n + k
  done

let read_at fd path off len =
  let b = Bytes.create len in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let n = ref 0 in
  (try
     while !n < len do
       match Unix.read fd b !n (len - !n) with
       | 0 -> raise Exit
       | k -> n := !n + k
     done
   with Exit -> raise (Sys_error (path ^ ": short read")));
  b

let read_whole path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let len = (Unix.fstat fd).Unix.st_size in
  Bytes.unsafe_to_string (read_at fd path 0 len)

(* ---- index mutation (accounting lives here) ---- *)

let supersede t key =
  match Hashtbl.find_opt t.index key with
  | None -> ()
  | Some old ->
    t.dead_bytes <- t.dead_bytes + old.e_bytes;
    t.live_bytes <- t.live_bytes - old.e_bytes;
    Hashtbl.remove t.index key

let apply_put t key ~seg ~off ~len ~hash ~bytes ~stamp =
  supersede t key;
  t.seq <- t.seq + 1;
  Hashtbl.replace t.index key
    { e_seg = seg; e_off = off; e_len = len; e_hash = hash; e_bytes = bytes;
      e_stamp = stamp; e_seq = t.seq };
  Queue.push (key, t.seq) t.order;
  t.live_bytes <- t.live_bytes + bytes

let apply_delete t key ~bytes =
  supersede t key;
  (* the delete marker itself is garbage the moment it is applied: it
     only suppresses older puts until compaction rewrites the log *)
  t.dead_bytes <- t.dead_bytes + bytes

let apply_reset t =
  Hashtbl.reset t.index;
  Queue.clear t.order;
  t.live_bytes <- 0;
  t.dead_bytes <- 0

(* ---- append path ---- *)

let fail_if_unusable t =
  if t.closed then raise (Sys_error "store is closed");
  if t.is_failed then
    raise (Sys_error "store failed (earlier append error); reopen to recover")

let count_write_error t =
  t.write_errors <- t.write_errors + 1;
  with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_write_errors)

let count_corrupt_read t =
  t.corrupt_reads <- t.corrupt_reads + 1;
  with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_corrupt_reads)

(* Encode [ops] (oldest first) as one record and append it to the
   active segment; on success apply them to the index.  Raises
   [Sys_error] on a failed or torn write — the group is then discarded
   and, after a torn write (partial record bytes on disk), the store is
   marked failed until the next open repairs the tail. *)
let append_group_locked t ops =
  let payload = Buffer.create 256 in
  put_varint payload (List.length ops);
  let voffs = List.map (fun op -> (op, encode_op payload op)) ops in
  let frame = Buffer.create 16 in
  put_varint frame (Buffer.length payload);
  add_hash64 frame (fnv_bytes (Buffer.to_bytes payload) 0 (Buffer.length payload));
  let record = Bytes.cat (Buffer.to_bytes frame) (Buffer.to_bytes payload) in
  let s = active t in
  let base = s.size in
  let frame_len = Buffer.length frame in
  (match Option.bind t.fault (fun p -> Fault.Plan.on_write p ~site:"store.append") with
   | Some Fault.Plan.Write_error ->
     count_write_error t;
     raise (Sys_error (s.path ^ ": injected write error"))
   | Some (Fault.Plan.Torn_write keep) ->
     (* the crash point of the battery: a strict prefix of the record
        lands, the group is NOT acknowledged, and the store is wedged
        until recovery truncates the tear *)
     let n = max 1 (min (Bytes.length record - 1)
                      (int_of_float (keep *. float_of_int (Bytes.length record)))) in
     (try write_all s.fd s.path record 0 n with Sys_error _ -> ());
     s.size <- s.size + n;
     t.is_failed <- true;
     count_write_error t;
     raise (Sys_error (s.path ^ ": injected torn write"))
   | None ->
     (try write_all s.fd s.path record 0 (Bytes.length record)
      with Sys_error _ as e ->
        (* a real short write may have torn the tail: wedge the store *)
        t.is_failed <- true;
        count_write_error t;
        raise e));
  s.size <- s.size + Bytes.length record;
  t.appends <- t.appends + 1;
  with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_appends);
  List.iter
    (fun (op, voff) ->
       match op, voff with
       | Put (k, v, stamp), Some rel ->
         apply_put t k ~seg:s.id ~off:(base + frame_len + rel)
           ~len:(String.length v)
           ~hash:(fnv_sub v 0 (String.length v))
           ~bytes:(encoded_put_bytes ~key:k ~value:v) ~stamp
       | Delete k, _ -> apply_delete t k ~bytes:(encoded_delete_bytes ~key:k)
       | Reset, _ -> apply_reset t
       | Put _, None -> assert false)
    voffs

(* ---- rotation ---- *)

let rotate_locked t =
  let s = active t in
  if s.size >= t.cfg.segment_bytes then begin
    match Option.bind t.fault (fun p -> Fault.Plan.on_write p ~site:"store.rotate") with
    | Some _ ->
      (* rotation is an optimisation; a failed one just keeps appending
         to the oversized segment *)
      count_write_error t
    | None ->
      match fresh_seg t.dir (s.id + 1) with
      | ns -> t.segs <- t.segs @ [ ns ]
      | exception Sys_error _ -> count_write_error t
  end

(* ---- eviction ---- *)

let expired t stamp =
  match t.cfg.ttl with
  | None -> false
  | Some d -> t.clock () -. stamp > d

(* Oldest-first size eviction: durable delete records, so an evicted
   entry stays evicted across recovery. *)
let evict_locked t =
  match t.cfg.max_bytes with
  | None -> ()
  | Some cap ->
    let victims = ref [] in
    while t.live_bytes > cap && not (Queue.is_empty t.order) do
      let key, seq = Queue.pop t.order in
      match Hashtbl.find_opt t.index key with
      | Some e when e.e_seq = seq ->
        (* applying the delete now keeps the loop honest about the
           remaining live bytes; the durable marker follows *)
        apply_delete t key ~bytes:(encoded_delete_bytes ~key);
        t.evictions <- t.evictions + 1;
        with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_evictions);
        victims := Delete key :: !victims
      | _ -> ()   (* stale order pair: overwritten or already deleted *)
    done;
    match !victims with
    | [] -> ()
    | vs ->
      (* the markers' index effect is already applied above; appending
         them again via the index would double-count, so write the
         record without re-applying *)
      (try
         let payload = Buffer.create 64 in
         put_varint payload (List.length vs);
         List.iter (fun op -> ignore (encode_op payload op : int option)) (List.rev vs);
         let frame = Buffer.create 16 in
         put_varint frame (Buffer.length payload);
         add_hash64 frame (fnv_bytes (Buffer.to_bytes payload) 0 (Buffer.length payload));
         let record = Bytes.cat (Buffer.to_bytes frame) (Buffer.to_bytes payload) in
         let s = active t in
         (match Option.bind t.fault (fun p -> Fault.Plan.on_write p ~site:"store.append") with
          | Some _ -> count_write_error t
          | None ->
            write_all s.fd s.path record 0 (Bytes.length record);
            s.size <- s.size + Bytes.length record;
            t.appends <- t.appends + 1;
            with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_appends))
       with Sys_error _ -> count_write_error t)

(* ---- compaction ---- *)

let compact_trigger t =
  let total = t.live_bytes + t.dead_bytes in
  total > 0 && t.dead_bytes >= 1024
  && float_of_int t.dead_bytes >= t.cfg.compact_ratio *. float_of_int total

(* Copy the live entries into a fresh epoch-marked segment, verify the
   copy by reading it back, then atomically retire the old segments.
   Any failure (including an injected torn write, which the read-back
   catches) aborts and keeps the old log intact. *)
let compact_locked t =
  if not t.is_failed && not t.closed then begin
    match Option.bind t.fault (fun p -> Fault.Plan.on_write p ~site:"store.compact") with
    | Some Fault.Plan.Write_error -> count_write_error t
    | fault ->
      let torn = match fault with Some (Fault.Plan.Torn_write k) -> Some k | _ -> None in
      (* read every live value back (dropping any that fails its hash),
         oldest segments first so the copy is one sequential pass *)
      let live = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.index [] in
      let live = List.sort (fun (_, a) (_, b) -> compare a.e_seq b.e_seq) live in
      let values =
        List.filter_map
          (fun (k, e) ->
             match
               let s = find_seg t e.e_seg in
               read_at s.fd s.path e.e_off e.e_len
             with
             | b when fnv_bytes b 0 e.e_len = e.e_hash ->
               Some (k, Bytes.unsafe_to_string b, e)
             | _ | exception (Sys_error _ | Not_found | Unix.Unix_error _) ->
               count_corrupt_read t;
               supersede t k;
               None)
          live
      in
      let buf = Buffer.create (t.live_bytes + 1024) in
      Buffer.add_string buf magic;
      let add_record ops =
        let payload = Buffer.create 256 in
        put_varint payload (List.length ops);
        let voffs = List.map (fun op -> (op, encode_op payload op)) ops in
        let frame = Buffer.create 16 in
        put_varint frame (Buffer.length payload);
        add_hash64 frame
          (fnv_bytes (Buffer.to_bytes payload) 0 (Buffer.length payload));
        let base = Buffer.length buf + Buffer.length frame in
        Buffer.add_buffer buf frame;
        Buffer.add_buffer buf payload;
        List.map (fun (_, v) -> Option.map (fun rel -> base + rel) v) voffs
      in
      ignore (add_record [ Reset ]);
      (* chunked groups keep records bounded without a record per entry *)
      let rec chunks = function
        | [] -> []
        | l ->
          let rec take n acc = function
            | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
            | rest -> (List.rev acc, rest)
          in
          let c, rest = take 128 [] l in
          c :: chunks rest
      in
      let new_offs = Hashtbl.create (List.length values) in
      List.iter
        (fun chunk ->
           let offs =
             add_record (List.map (fun (k, v, e) -> Put (k, v, e.e_stamp)) chunk)
           in
           List.iter2
             (fun (k, _, _) off -> Hashtbl.replace new_offs k (Option.get off))
             chunk offs)
        (chunks values);
      let comp_id = (active t).id + 1 in
      let tmp = Filename.temp_file ~temp_dir:t.dir "compact" ".tmp" in
      let ok =
        try
          let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
          let content = Buffer.to_bytes buf in
          let wlen =
            match torn with
            | Some keep ->
              max 1 (min (Bytes.length content - 1)
                       (int_of_float (keep *. float_of_int (Bytes.length content))))
            | None -> Bytes.length content
          in
          Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
               write_all fd tmp content 0 wlen;
               Unix.fsync fd);
          (* read-back verification: the copy must replay to exactly the
             live set before the old segments are retired *)
          let written = read_whole tmp in
          String.length written = Buffer.length buf
          && String.sub written 0 (Buffer.length buf) = Buffer.contents buf
        with Sys_error _ | Unix.Unix_error _ -> false
      in
      if not ok then begin
        (try Sys.remove tmp with Sys_error _ -> ());
        count_write_error t
      end
      else begin
        match
          Sys.rename tmp (seg_path t.dir comp_id);
          fresh_seg t.dir (comp_id + 1)
        with
        | exception (Sys_error _ | Unix.Unix_error _) ->
          (try Sys.remove tmp with Sys_error _ -> ());
          count_write_error t
        | new_active ->
          let comp_seg = open_seg t.dir comp_id in
          let old = t.segs in
          t.segs <- [ comp_seg; new_active ];
          List.iter
            (fun (k, _, e) ->
               match Hashtbl.find_opt new_offs k with
               | Some off ->
                 Hashtbl.replace t.index k { e with e_seg = comp_id; e_off = off }
               | None -> ())
            values;
          t.dead_bytes <- 0;
          List.iter
            (fun s ->
               (try Unix.close s.fd with Unix.Unix_error _ -> ());
               try Sys.remove s.path with Sys_error _ -> ())
            old;
          t.compactions <- t.compactions + 1;
          with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_compactions)
      end
  end

(* ---- commit ---- *)

let commit_locked t =
  match t.pending with
  | [] -> ()
  | ops ->
    fail_if_unusable t;
    let ops = List.rev ops in
    t.pending <- [];
    Hashtbl.reset t.pending_tbl;
    Fun.protect ~finally:(fun () -> publish_gauges t)
      (fun () ->
         append_group_locked t ops;   (* raises on failure: group discarded *)
         evict_locked t;
         if compact_trigger t then compact_locked t;
         rotate_locked t)

(* ---- recovery ---- *)

(* Replay decisions are made over full in-memory scans and the repairs
   (truncation, unlinking) land only after the scan, so a crash during
   recovery is recoverable by the next recovery. *)
let recover t =
  let names = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.iter
    (fun n ->
       if Filename.check_suffix n ".tmp" then
         try Sys.remove (Filename.concat t.dir n) with Sys_error _ -> ())
    names;
  let ids =
    Array.to_list names
    |> List.filter_map seg_id_of_name
    |> List.sort compare
  in
  if ids <> [] then begin
    (match Option.bind t.fault (fun p -> Fault.Plan.on_write p ~site:"store.recover") with
     | Some _ -> raise (Sys_error (t.dir ^ ": injected recovery read error"))
     | None -> ());
    t.recovered_records <- 0;
    with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_recoveries);
    let contents =
      List.map (fun id -> (id, read_whole (seg_path t.dir id))) ids
    in
    (* pass 1: the latest segment opening with a valid epoch reset
       supersedes everything before it *)
    let starts_with_reset (_, s) =
      String.length s >= magic_len
      && String.sub s 0 magic_len = magic
      &&
      let pos = ref magic_len in
      match parse_record s pos (String.length s) with
      | Ok ([ P_reset ], _, _) | Ok (P_reset :: _, _, _) -> true
      | _ -> false
    in
    let replay_start =
      List.fold_left
        (fun acc seg -> if starts_with_reset seg then fst seg else acc)
        (List.hd ids) contents
    in
    (* pass 2: replay in order from the epoch start; the first torn or
       corrupt record is the truncation point and ends the replay *)
    let truncate_at = ref None in
    let replayed = ref [] in
    List.iter
      (fun (id, s) ->
         if id >= replay_start && !truncate_at = None then begin
           if String.length s < magic_len || String.sub s 0 magic_len <> magic then
             truncate_at := Some (id, 0)
           else begin
             let pos = ref magic_len in
             let stop = ref false in
             while not !stop do
               match parse_record s pos (String.length s) with
               | Error `End -> stop := true
               | Error `Bad ->
                 truncate_at := Some (id, !pos);
                 stop := true
               | Ok (ops, next, start) ->
                 ignore start;
                 t.recovered_records <- t.recovered_records + 1;
                 with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_recovered);
                 List.iter
                   (fun op ->
                      match op with
                      | P_reset -> apply_reset t
                      | P_del { key; bytes } -> apply_delete t key ~bytes
                      | P_put { key; voff; vlen; vhash; stamp; bytes } ->
                        if expired t stamp then begin
                          (* never index an expired entry; its bytes are
                             garbage for the next compaction *)
                          supersede t key;
                          t.dead_bytes <- t.dead_bytes + bytes;
                          t.evictions <- t.evictions + 1;
                          with_metrics t (fun m ->
                              Obs.Metric.Counter.incr m.c_evictions)
                        end
                        else
                          apply_put t key ~seg:id ~off:voff ~len:vlen ~hash:vhash
                            ~bytes ~stamp)
                   ops;
                 pos := next
             done
           end;
           replayed := id :: !replayed
         end)
      contents;
    (* repairs, now that the scan is complete *)
    (match !truncate_at with
     | None -> ()
     | Some (bad_id, off) ->
       t.truncated_records <- t.truncated_records + 1;
       with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_truncated);
       (* drop everything at and past the tear: the torn record was
          never acknowledged, later segments postdate it *)
       List.iter
         (fun id ->
            if id > bad_id then
              try Sys.remove (seg_path t.dir id) with Sys_error _ -> ())
         ids;
       if off <= magic_len then
         (try Sys.remove (seg_path t.dir bad_id) with Sys_error _ -> ())
       else begin
         let fd = Unix.openfile (seg_path t.dir bad_id) [ Unix.O_WRONLY ] 0o644 in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () -> Unix.ftruncate fd off)
       end);
    (* pre-epoch leftovers from a crash between rename and unlink *)
    List.iter
      (fun id ->
         if id < replay_start then
           try Sys.remove (seg_path t.dir id) with Sys_error _ -> ())
      ids
  end;
  (* open what survived; a fresh store starts at segment 0 *)
  let ids =
    (try Sys.readdir t.dir with Sys_error _ -> [||])
    |> Array.to_list
    |> List.filter_map seg_id_of_name
    |> List.sort compare
  in
  t.segs <-
    (match ids with
     | [] -> [ fresh_seg t.dir 0 ]
     | ids -> List.map (open_seg t.dir) ids);
  publish_gauges t

(* ---- public api ---- *)

let open_ ?metrics ?fault ?(config = default_config) ?clock ~dir () =
  if config.segment_bytes < 4096 then
    invalid_arg "Log_store.open_: segment_bytes < 4096";
  if config.compact_ratio < 0.0 || config.compact_ratio > 1.0 then
    invalid_arg "Log_store.open_: compact_ratio outside [0,1]";
  let clock = Option.value clock ~default:Unix.gettimeofday in
  mkdir_p dir;
  let t =
    { dir; cfg = config; clock; fault; lock = Mutex.create ();
      index = Hashtbl.create 256; order = Queue.create (); segs = [];
      seq = 0; live_bytes = 0; dead_bytes = 0; pending = [];
      pending_tbl = Hashtbl.create 8; is_failed = false; closed = false;
      appends = 0; recovered_records = 0; truncated_records = 0;
      corrupt_reads = 0; compactions = 0; evictions = 0; write_errors = 0;
      metrics = Option.map resolve_metrics metrics }
  in
  recover t;
  t

let put t key value =
  locked t (fun () ->
      fail_if_unusable t;
      t.pending <- Put (key, value, t.clock ()) :: t.pending;
      Hashtbl.replace t.pending_tbl key (Some value))

let delete t key =
  locked t (fun () ->
      fail_if_unusable t;
      t.pending <- Delete key :: t.pending;
      Hashtbl.replace t.pending_tbl key None)

let commit t = locked t (fun () -> commit_locked t)

let set t key value =
  locked t (fun () ->
      fail_if_unusable t;
      t.pending <- Put (key, value, t.clock ()) :: t.pending;
      Hashtbl.replace t.pending_tbl key (Some value);
      commit_locked t)

let drop_expired_locked t key e =
  supersede t key;
  t.dead_bytes <- t.dead_bytes + e.e_bytes;
  t.evictions <- t.evictions + 1;
  with_metrics t (fun m -> Obs.Metric.Counter.incr m.c_evictions);
  publish_gauges t

let get t key =
  locked t (fun () ->
      if t.closed then raise (Sys_error "store is closed");
      match Hashtbl.find_opt t.pending_tbl key with
      | Some v -> v
      | None ->
        match Hashtbl.find_opt t.index key with
        | None -> None
        | Some e when expired t e.e_stamp ->
          drop_expired_locked t key e;
          None
        | Some e ->
          match
            let s = find_seg t e.e_seg in
            read_at s.fd s.path e.e_off e.e_len
          with
          | b when fnv_bytes b 0 e.e_len = e.e_hash ->
            Some (Bytes.unsafe_to_string b)
          | _ | exception (Sys_error _ | Not_found | Unix.Unix_error _) ->
            (* a corrupt span must never be served: drop the entry *)
            count_corrupt_read t;
            supersede t key;
            t.dead_bytes <- t.dead_bytes + e.e_bytes;
            publish_gauges t;
            None)

let mem t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.pending_tbl key with
      | Some v -> v <> None
      | None ->
        match Hashtbl.find_opt t.index key with
        | None -> false
        | Some e ->
          if expired t e.e_stamp then begin
            drop_expired_locked t key e;
            false
          end
          else true)

let entries t = locked t (fun () -> Hashtbl.length t.index)

let keys t = locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.index [])

let compact t =
  locked t (fun () ->
      commit_locked t;
      compact_locked t;
      publish_gauges t)

let stats t =
  locked t (fun () ->
      { segments = List.length t.segs;
        entries = Hashtbl.length t.index;
        live_bytes = t.live_bytes;
        dead_bytes = t.dead_bytes;
        appends = t.appends;
        recovered_records = t.recovered_records;
        truncated_records = t.truncated_records;
        corrupt_reads = t.corrupt_reads;
        compactions = t.compactions;
        evictions = t.evictions;
        write_errors = t.write_errors })

let failed t = locked t (fun () -> t.is_failed)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        (try commit_locked t with Sys_error _ -> ());
        List.iter
          (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ())
          t.segs;
        t.closed <- true
      end)
