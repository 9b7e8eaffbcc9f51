module D = Sexp.Datum

exception Corrupt of { path : string; offset : int; reason : string }

let () =
  Printexc.register_printer (function
    | Corrupt { path; offset; reason } ->
      Some (Printf.sprintf "Trace.Io.Corrupt: %s: %s at byte %d" path reason offset)
    | _ -> None)

let event_to_datum (e : Event.t) : D.t =
  match e with
  | Prim { prim; args; result } ->
    D.list [ D.sym "p"; D.sym (Event.prim_name prim); D.list args; result ]
  | Call { name; nargs } -> D.list [ D.sym "c"; D.sym name; D.int nargs ]
  | Return { name } -> D.list [ D.sym "r"; D.sym name ]

let event_of_datum (d : D.t) : Event.t =
  match d with
  | Cons (Sym "p", Cons (Sym prim, Cons (args, Cons (result, Nil)))) ->
    (match Event.prim_of_name prim with
     | Some prim -> Prim { prim; args = D.to_list args; result }
     | None -> invalid_arg ("Trace.Io: unknown primitive " ^ prim))
  | Cons (Sym "c", Cons (Sym name, Cons (Int nargs, Nil))) -> Call { name; nargs }
  | Cons (Sym "r", Cons (Sym name, Nil)) -> Return { name }
  | _ -> invalid_arg "Trace.Io: malformed event"

type format = Sexp_lines | Binary

let write_channel oc capture =
  Array.iter
    (fun e ->
       output_string oc (Sexp.to_string (event_to_datum e));
       output_char oc '\n')
    (Capture.events capture)

(* Line-by-line sexp reads track the byte offset of each line so parse
   and shape errors surface as typed {!Corrupt} instead of leaking
   [Parse_error] / [Invalid_argument] to the serving layer. *)
let read_sexp_channel ~path ic =
  let capture = Capture.create () in
  let offset = ref 0 in
  (try
     while true do
       let line_start = !offset in
       let line = input_line ic in
       (* input_line consumes the newline; channels here are binary *)
       offset := !offset + String.length line + 1;
       if String.trim line <> "" then begin
         let d =
           try Sexp.parse line
           with Sexp.Reader.Parse_error msg ->
             raise (Corrupt { path; offset = line_start; reason = msg })
         in
         match event_of_datum d with
         | e -> Capture.record capture e
         | exception Invalid_argument msg ->
           raise (Corrupt { path; offset = line_start; reason = msg })
       end
     done
   with End_of_file -> ());
  capture

(* Both formats save through the one atomic writer, which also draws
   the injected faults. *)
let save ?(format = Sexp_lines) ?fault path capture =
  match format with
  | Binary -> Binary.save ?fault path capture
  | Sexp_lines -> Binary.write_atomic ?fault path (fun oc -> write_channel oc capture)

type loaded =
  | Binary_source of Binary.source
  | Sexp_capture of Capture.t

type stamp = { dev : int; ino : int; size : int; mtime : float; ctime : float }

let stamp_of_stats (st : Unix.stats) =
  { dev = st.st_dev; ino = st.st_ino; size = st.st_size; mtime = st.st_mtime;
    ctime = st.st_ctime }

let stamp path = stamp_of_stats (Unix.stat path)

(* Format sniffing on an open descriptor, which it leaves at offset 0:
   a binary trace announces itself with the "SMTB" prefix, anything
   else is datum lines.  Any revision routes to the binary reader,
   which rejects the ones it does not read with a typed error instead
   of letting them misparse as sexp lines. *)
let fd_is_binary fd =
  let n = String.length Binary.family in
  let b = Bytes.create n in
  let rec fill off =
    if off < n then match Unix.read fd b off (n - off) with 0 -> off | k -> fill (off + k)
    else off
  in
  let binary = fill 0 = n && Bytes.unsafe_to_string b = Binary.family in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
  binary

(* The one read behind both entry points: the file is opened once,
   stamped with [fstat] and sniffed, and a binary trace's bytes go
   where [binary] puts them; a second [fstat] after the read catches a
   file rewritten in place while it was read.  Damage in either format
   surfaces as {!Corrupt} carrying the path and byte offset. *)
let read path ~binary f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let st = Unix.fstat fd in
  let stamp = stamp_of_stats st in
  if fd_is_binary fd then
    try
      binary fd st.st_size (fun src ->
          if stamp_of_stats (Unix.fstat fd) <> stamp then
            raise (Binary.Corrupt { offset = 0; reason = "file changed while reading" });
          f stamp (Binary_source src))
    with Binary.Corrupt { offset; reason } -> raise (Corrupt { path; offset; reason })
  else f stamp (Sexp_capture (read_sexp_channel ~path (Unix.in_channel_of_descr fd)))

(* A caller whose use of the trace ends inside [f] reads into the
   domain's kept buffer. *)
let with_path path f = read path ~binary:Binary.with_fd_source f

(* A source that outlives the call owns its bytes: a copy, not a
   mapping, since every caller reads each byte once and the GC frees a
   copy like any buffer. *)
let open_path path =
  read path ~binary:(fun fd len k -> k (Binary.source_of_fd fd len)) (fun _ loaded -> loaded)

(* [load] serves either format as a whole capture; binary traces decode
   through the source. *)
let load path =
  with_path path (fun _ -> function
    | Sexp_capture c -> c
    | Binary_source src -> Binary.capture_of_source src)
