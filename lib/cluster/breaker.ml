(* Per-shard circuit breaker.

   Closed counts consecutive failures; at the threshold it opens and
   stops admitting traffic.  After the cooldown the next [allow] admits
   exactly one half-open trial: a success closes the breaker, a failure
   re-arms the cooldown.  Queue depth is a soft signal — a closed
   breaker over its depth limit refuses admission without changing
   state, which is what turns the PR-4/PR-6 reactive overload ladder
   into preemptive routing-around. *)

type state = Closed | Half_open | Open

type config = {
  failures : int;
  cooldown : float;
  rtt_limit : float;
  queue_limit : int;
}

let default =
  { failures = 4; cooldown = 1.0; rtt_limit = infinity; queue_limit = 0 }

type internal = C | O

type t = {
  cfg : config;
  on_open : unit -> unit;
  mutable st : internal;
  mutable consecutive : int;     (* failures since the last success (Closed) *)
  mutable opened_at : float;
  mutable trial : bool;          (* a half-open probe is in flight *)
  mutable opens : int;
  mutable last_depth : int;
}

let create ?(config = default) ?(on_open = fun () -> ()) () =
  if config.failures < 0 then invalid_arg "Breaker.create: failures < 0";
  if config.cooldown < 0. then invalid_arg "Breaker.create: cooldown < 0";
  if config.queue_limit < 0 then invalid_arg "Breaker.create: queue_limit < 0";
  { cfg = config; on_open;
    st = C; consecutive = 0; opened_at = 0.; trial = false; opens = 0;
    last_depth = 0 }

let state t ~now =
  match t.st with
  | C -> Closed
  | O -> if now -. t.opened_at >= t.cfg.cooldown then Half_open else Open

let state_name = function
  | Closed -> "closed"
  | Half_open -> "half_open"
  | Open -> "open"

(* Stats exposure uses a numeric gauge: 0 closed, 1 half-open, 2 open. *)
let state_code = function Closed -> 0 | Half_open -> 1 | Open -> 2

let allow t ~now =
  match t.st with
  | C -> t.cfg.queue_limit = 0 || t.last_depth <= t.cfg.queue_limit
  | O ->
    if now -. t.opened_at >= t.cfg.cooldown && not t.trial then begin
      t.trial <- true;      (* exactly one probe per cooldown window *)
      true
    end
    else false

let force_open t ~now =
  (match t.st with
   | C -> t.on_open (); t.opens <- t.opens + 1
   | O -> ());
  t.st <- O;
  t.opened_at <- now;
  t.trial <- false

let record_success t =
  match t.st with
  | C -> t.consecutive <- 0
  | O ->
    if t.trial then begin
      t.st <- C;
      t.consecutive <- 0;
      t.trial <- false
    end

let record_failure t ~now =
  match t.st with
  | C ->
    t.consecutive <- t.consecutive + 1;
    if t.cfg.failures > 0 && t.consecutive >= t.cfg.failures then
      force_open t ~now
  | O ->
    (* a failure while open (or of the half-open trial) re-arms the
       cooldown without re-counting an "open" transition *)
    t.opened_at <- now;
    t.trial <- false

let record_rtt t ~now rtt =
  if Float.is_finite t.cfg.rtt_limit && rtt > t.cfg.rtt_limit then
    record_failure t ~now
  else record_success t

let note_queue_depth t depth = t.last_depth <- depth

let opens t = t.opens
