(* The hooks pass each event to [emit] as the interpreter produces it:
   into a capture for [attach], straight into the binary encoding for
   [encode_program]. *)
let hooks emit =
  {
    Interp.on_prim =
      (fun name args result ->
         match Trace.Event.prim_of_name name with
         | Some prim ->
           emit
             (Trace.Event.Prim
                { prim;
                  args = List.map Value.to_datum args;
                  result = Value.to_datum result })
         | None -> ());
    on_call = (fun name nargs -> emit (Trace.Event.Call { name; nargs }));
    on_return = (fun name -> emit (Trace.Event.Return { name }));
  }

let attach interp =
  let capture = Trace.Capture.create () in
  Interp.set_hooks interp (hooks (Trace.Capture.record capture));
  capture

let detach interp = Interp.set_hooks interp Interp.no_hooks

let run_traced ?strategy ~input source emit =
  let interp = Interp.create ?strategy () in
  Prelude.load interp;
  Interp.provide_input interp input;
  Interp.set_hooks interp (hooks emit);
  ignore (Interp.run_program interp source);
  detach interp

let trace_program ?strategy ?(input = []) source =
  let capture = Trace.Capture.create () in
  run_traced ?strategy ~input source (Trace.Capture.record capture);
  capture

let encode_program ?strategy ?(input = []) source =
  Trace.Binary.encode (run_traced ?strategy ~input source)
