(** Sharded smalld: a consistent-hash ring over named shards, a
    cache-aware router speaking the newline-sexp wire protocol to N
    backend services, a shard health monitor, and a zipfian YCSB-style
    load harness — the cluster front behind [smallsim route] and
    [smallsim loadgen]. *)

module Ring = Ring
module Reply = Reply
module Router = Router
module Health = Health
module Loadgen = Loadgen
module Breaker = Breaker
module Router_core = Router_core
