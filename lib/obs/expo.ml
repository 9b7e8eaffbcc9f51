(* Prometheus text exposition (version 0.0.4) of a registry snapshot.
   Samples arrive sorted by (name, labels), so each family is a
   contiguous run sharing one HELP/TYPE header. *)

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* {a="x",b="y"} — [extra] appends the histogram [le] label last. *)
let label_block ?extra labels =
  let pairs =
    List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels
    @ (match extra with Some (k, v) -> [ Printf.sprintf "%s=\"%s\"" k v ] | None -> [])
  in
  if pairs = [] then "" else "{" ^ String.concat "," pairs ^ "}"

let type_name = function
  | Registry.Counter_v _ -> "counter"
  | Registry.Gauge_v _ -> "gauge"
  | Registry.Histogram_v _ -> "histogram"

let emit_sample b (s : Registry.sample) =
  match s.value with
  | Registry.Counter_v v ->
    Printf.bprintf b "%s%s %d\n" s.name (label_block s.labels) v
  | Registry.Gauge_v v ->
    Printf.bprintf b "%s%s %d\n" s.name (label_block s.labels) v
  | Registry.Histogram_v h ->
    let cum = Metric.Histogram.cumulative h in
    Array.iteri
      (fun i c ->
         let le =
           if i < Array.length h.Metric.Histogram.sbounds then
             fmt_float h.Metric.Histogram.sbounds.(i)
           else "+Inf"
         in
         Printf.bprintf b "%s_bucket%s %d\n" s.name
           (label_block ~extra:("le", le) s.labels) c)
      cum;
    Printf.bprintf b "%s_sum%s %s\n" s.name (label_block s.labels)
      (fmt_float h.Metric.Histogram.ssum);
    Printf.bprintf b "%s_count%s %d\n" s.name (label_block s.labels)
      (Metric.Histogram.count h)

let text samples =
  let b = Buffer.create 1024 in
  let last_name = ref None in
  List.iter
    (fun (s : Registry.sample) ->
       if !last_name <> Some s.name then begin
         last_name := Some s.name;
         if s.help <> "" then
           Printf.bprintf b "# HELP %s %s\n" s.name (escape_help s.help);
         Printf.bprintf b "# TYPE %s %s\n" s.name (type_name s.value)
       end;
       emit_sample b s)
    samples;
  Buffer.contents b

let of_registry reg = text (Registry.snapshot reg)

(* Temp file in the target directory, then rename: a scraper never reads
   a half-written exposition.  The close is where a full disk shows (the
   flush), so it is inside the handler; a failed write leaves no temp
   file behind. *)
let write_file reg path =
  let text = of_registry reg in
  match Filename.temp_file ~temp_dir:(Filename.dirname path) "metrics" ".tmp" with
  | exception Sys_error _ -> ()
  | tmp ->
    (try
       let oc = open_out_bin tmp in
       (try
          output_string oc text;
          close_out oc
        with e ->
          close_out_noerr oc;
          raise e);
       Sys.rename tmp path
     with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ()))
