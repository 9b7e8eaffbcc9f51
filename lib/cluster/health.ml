type probe = {
  poll : unit -> string option;
  deadline : float option;   (* armed only if the shard was idle at send *)
}

type t = {
  router : Router.t;
  interval : float;
  down_after : float;
  m : Mutex.t;
  mutable stopping : bool;
  mutable domain : unit Domain.t option;
}

(* kill (not just mark_down): a SIGKILL is the only wake-up that works
   on a spawned child that is alive but wedged *)
let declare_dead t sid = Router.kill t.router sid

let child_exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | exception Unix.Unix_error _ -> false

let check t probes =
  (* real deaths first: an exited child needs no probe to convict it *)
  List.iter
    (fun (sid, pid) -> if child_exited pid then declare_dead t sid)
    (Router.spawned_pids t.router);
  let now = Unix.gettimeofday () in
  List.filter_map
    (fun sid ->
       if not (List.mem sid (Router.alive_ids t.router)) then None
       else
         match List.assoc_opt sid probes with
         | Some p ->
           (match p.poll () with
            | Some _ -> None                        (* answered; re-probe next tick *)
            | None ->
              (match p.deadline with
               | Some d when now > d ->
                 declare_dead t sid;
                 None
               | _ -> Some (sid, p)))               (* still waiting *)
         | None ->
           let idle = Router.is_idle t.router sid in
           (match Router.probe t.router sid with
            | None -> None
            | Some poll ->
              let deadline = if idle then Some (now +. t.down_after) else None in
              Some (sid, { poll; deadline })))
    (Router.shard_ids t.router)

let rec loop t probes =
  Mutex.lock t.m;
  let stop = t.stopping in
  if not stop then begin
    (* a sleep the stopper can interrupt *)
    let wake = Unix.gettimeofday () +. t.interval in
    let rec nap () =
      if (not t.stopping) && Unix.gettimeofday () < wake then begin
        Mutex.unlock t.m;
        Unix.sleepf 0.02;
        Mutex.lock t.m;
        nap ()
      end
    in
    nap ()
  end;
  let stop = t.stopping in
  Mutex.unlock t.m;
  if not stop then loop t (check t probes)

let start ?(interval = 0.25) ?(down_after = 2.0) router =
  let t =
    { router; interval; down_after;
      m = Mutex.create ();
      stopping = false; domain = None }
  in
  t.domain <- Some (Domain.spawn (fun () -> loop t []));
  t

let stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  let d = t.domain in
  t.domain <- None;
  Mutex.unlock t.m;
  match d with None -> () | Some dom -> Domain.join dom
