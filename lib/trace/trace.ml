(** Trace substrate: events as captured from the instrumented interpreter
    (§3.3.1), whole-trace statistics (Table 5.1), the unique-id + chaining
    preprocessing of §5.2.1, serialisation, and a synthetic generator for
    scale tests. *)

module Event = Event
module Capture = Capture
module Preprocess = Preprocess
module Io = Io
module Binary = Binary
module Synth = Synth
module Scratch = Scratch
