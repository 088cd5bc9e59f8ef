(** Nanosecond clock for span timings.

    It reads the system wall clock once per span boundary; on the
    engine's time scales (microseconds and up) it is monotonic for all
    practical purposes, and the subsystem deliberately takes no
    dependency that would provide a raw monotonic source. *)

val now_ns : unit -> float
(** Current time in nanoseconds.  Only differences are meaningful. *)
