(** Facade over the observability layer: one module for front ends
    (CLI, bench binaries, tests) to toggle profiling, attach a trace
    file, and read results.  Engine code uses {!Metric}, {!Span} and
    {!Sink} directly; front ends should only need this module.

    Costs when everything is off (the default): each counter probe is a
    flag read and a branch; each span is two flag reads; no clock reads,
    no allocation. *)

val set_profiling : bool -> unit
(** Enables metric recording ({!Metric.set_enabled}).  Backs
    [--profile]. *)

val trace_to_file : string -> unit
(** Opens (truncating) a JSONL trace at the given path, installs it as
    the process sink, and turns profiling on (span/counter events are
    only meaningful with recording enabled).  Backs [--trace FILE].
    Replaces any previously attached trace file. *)

val close_trace : unit -> unit
(** Emits one final ["counters"] event carrying every registered
    counter value and histogram total, flushes, closes the file, and
    restores the null sink.  A no-op when no trace file is attached.
    Registered with [at_exit] by {!trace_to_file}, so explicit calls
    are only needed to cut a trace mid-process. *)

val reset : unit -> unit

val print_summary : out_channel -> unit
(** Pretty counter/histogram table for [--profile] output: counters
    sorted by name, then histograms with count, total and mean.
    Metrics that never fired (all zero) are omitted. *)
