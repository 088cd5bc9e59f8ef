(** Event sinks: where observability events go.

    The engine's instrumentation points build and emit events only when
    a sink is installed; with the default null sink the hot paths pay a
    single non-atomic flag read per probe.  Sinks must tolerate
    concurrent {!emit} calls — the runs scheduler and the parallel scans
    emit from several domains at once.

    {b Sink contract} (see docs/OBSERVABILITY.md):
    - [emit] must be thread-safe and must not raise (a tracing failure
      must never change an engine verdict);
    - [emit] must not call back into the engine (events can fire from
      arbitrary engine internals);
    - [flush] makes every previously emitted event durable (file sinks);
    - event order within one domain is emission order; across domains it
      is interleaving-dependent. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  kind : string;  (** ["span"] | ["counters"] | ["point"] *)
  name : string;  (** dotted probe name, e.g. ["dynamics.step"] *)
  t_ns : float;  (** {!Clock.now_ns} at emission (span start for spans) *)
  fields : (string * value) list;
}

type t = { emit : event -> unit; flush : unit -> unit }

val null : t
(** Drops everything. *)

val jsonl : out_channel -> t
(** One JSON object per line, in the schema documented in
    docs/OBSERVABILITY.md.  Serialized under an internal mutex; the
    channel is not closed by the sink. *)

val memory : unit -> t * (unit -> event list)
(** In-memory capture for tests: the second component returns the
    events emitted so far, in emission order. *)

val callback : (event -> unit) -> t
(** Forwards every event to the function — the streaming seam the serve
    daemon uses to relay trace events to watching clients.  The callback
    must be thread-safe (events arrive from several domains); exceptions
    it raises are swallowed, honouring the emit-never-raises contract. *)

val event_to_json : event -> string
(** The single-line JSON rendering used by {!jsonl} (exposed so tests
    and other front ends can share the encoding). *)

(** {1 The installed sink}

    One process-wide sink.  [install None] restores {!null} and turns
    the emission flag off. *)

val install : t option -> unit

val active : unit -> bool
(** One cheap flag read: instrumentation points check this before
    building an event. *)

val emit : event -> unit
(** Emits to the installed sink; a no-op when {!active} is false. *)

val flush : unit -> unit
