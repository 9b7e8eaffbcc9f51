(* In-memory span recording for the traced run.  Each client domain owns
   one recorder, so recording takes no lock; ids come from one atomic
   counter so they stay unique across recorders.  Spans are written out
   only when the run ends. *)

type span = {
  id : int;
  parent : int;          (* -1 for a root span *)
  rid : int;             (* request id shared by every span of one request *)
  name : string;
  start : float;
  stop : float;
}

type recorder = { mutable spans : span list }

let next_id = Atomic.make 0

let recorder () = { spans = [] }

(* [with_span r ~rid ~parent name f] runs [f id] inside a span named
   [name]; [f] receives the span's id so it can open children.  With no
   recorder it only runs [f]. *)
let with_span r ~rid ~parent name f =
  match r with
  | None -> f parent
  | Some r ->
    let id = Atomic.fetch_and_add next_id 1 in
    let start = Unix.gettimeofday () in
    let v = f id in
    let stop = Unix.gettimeofday () in
    r.spans <- { id; parent; rid; name; start; stop } :: r.spans;
    v

let all recorders =
  List.concat_map (fun r -> r.spans) recorders
  |> List.sort (fun a b -> compare a.id b.id)

(* Dump format: header lines [# key value], then one tab-separated line
   per span: id, parent, rid, name, start, stop (seconds, %.9f). *)
let write path ~header spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter (fun (k, v) -> Printf.fprintf oc "# %s %.9g\n" k v) header;
  List.iter
    (fun s ->
       Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.rid s.name
         s.start s.stop)
    spans

let read path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let header = ref [] and spans = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 && line.[0] = '#' then
         Scanf.sscanf line "# %s %f" (fun k v -> header := (k, v) :: !header)
       else
         match String.split_on_char '\t' line with
         | [ id; parent; rid; name; start; stop ] ->
           spans :=
             { id = int_of_string id; parent = int_of_string parent;
               rid = int_of_string rid; name;
               start = float_of_string start; stop = float_of_string stop }
             :: !spans
         | _ -> failwith ("bad span line: " ^ line)
     done
   with End_of_file -> ());
  (List.rev !header, List.rev !spans)
