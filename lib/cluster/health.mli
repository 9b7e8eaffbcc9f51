(** Shard health monitoring for a {!Router}.

    One monitor domain periodically checks every live shard:
    - a {e spawned} shard whose child process has exited is declared
      dead immediately (reaped via [waitpid WNOHANG]);
    - an idle shard is probed with a wire-level [(ping)]; a probe still
      unanswered after [down_after] seconds declares the shard dead.

    Probes ride the shard's own request queue, so a shard that is merely
    {e busy} never has a timeout held against it: the deadline is only
    armed when the shard was idle at probe time.  Declaring a shard dead
    goes through {!Router.mark_down} (spawned children are SIGKILLed
    first), which drains its queue onto the surviving shards. *)

type t

(** [start ?interval ?down_after router] spawns the monitor domain.
    [interval] (default 0.25s) is the check period; [down_after]
    (default 2s) is the unanswered-probe deadline. *)
val start : ?interval:float -> ?down_after:float -> Router.t -> t

(** Stops and joins the monitor domain.  Idempotent. *)
val stop : t -> unit
