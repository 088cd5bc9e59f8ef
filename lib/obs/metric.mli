(** Process-wide counters and histograms.

    Instrumentation points declare their metrics once, at module
    initialization, through {!Counter.make} / {!Histogram.make}; the
    registry is keyed by name, so re-declaring a name returns the same
    metric (tests and the bench harness look metrics up by name).

    Recording is gated on one plain-flag read ({!enabled}): with
    profiling off — the default — a counter increment costs a load and a
    conditional branch, nothing else, which is what keeps the engine's
    inner kernels instrumentable at all.  With profiling on, updates are
    atomic, so metrics recorded concurrently from several domains merge
    exactly (the merge is the sum — see the cross-domain tests). *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Turns recording on/off process-wide.  Backs [--profile]. *)

module Counter : sig
  type t

  val make : string -> t
  (** Registers (or finds) the counter of that name. *)

  val incr : t -> unit
  (** Adds 1 when {!enabled}; otherwise a flag read and a branch. *)

  val add : t -> int -> unit

  val value : t -> int
end

module Histogram : sig
  (** Base-2 exponential buckets: bucket 0 counts observations [<= 1],
      bucket [i >= 1] counts observations in [(2^(i-1), 2^i]]; the last
      bucket absorbs everything larger.  Enough resolution for span
      durations and change-report sizes, with O(1) bounded memory. *)

  type t

  val make : string -> t

  val observe : t -> float -> unit
  (** Records when {!enabled}; negative and NaN observations count into
      bucket 0 (they never arise from the engine's probes). *)

  val buckets : t -> (float * int) list
  (** Nonzero buckets as [(upper_bound, count)], ascending. *)
end

(** {1 Snapshots} *)

type histogram_snapshot = {
  hcount : int;
  hsum : float;
  hbuckets : (float * int) list;  (** nonzero [(upper_bound, count)] *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram_snapshot) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** Point-in-time copy of every registered metric (including zeros). *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum — the merge rule for combining snapshots taken in
    different processes or before/after a reset.  Metrics present in
    only one side pass through unchanged. *)

val reset : unit -> unit
(** Zeroes every registered metric (the registry itself persists). *)

val find_counter : string -> Counter.t option
val find_histogram : string -> Histogram.t option
