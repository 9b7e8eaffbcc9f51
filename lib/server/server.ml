(** smalld — the simulation-job service: typed job descriptions over the
    workload/trace/analysis/simulator stack, a bounded-FIFO scheduler on
    a pool of worker domains, a content-addressed result cache keyed by
    (trace digest, config digest), and the newline-delimited JSON wire
    protocol behind [smallsim serve]/[submit]. *)

module Json = Json
module Obs_json = Obs_json
module Job = Job
module Result_cache = Result_cache
module Exec = Exec
module Service_core = Service_core
module Service = Service
