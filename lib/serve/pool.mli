(** A supervised pool of worker processes for [gncg serve].

    The pool launches [config.workers] child processes (via a {!spawn}
    function — {!spawn_exec} re-executes the CLI as [gncg worker]) and
    dispatches jobs to them over {!Protocol.Worker_wire}.
    The supervisor owns, per worker:

    - {b heartbeats}: workers beat every 250 ms; a worker silent for
      [liveness_deadline] seconds is SIGKILLed and its in-flight job
      requeued ([serve.pool.heartbeats_missed]);
    - {b budgets}: a dispatch with a wall-clock budget that overruns is
      SIGKILLed and classified by raising
      {!Gncg_runs.Scheduler.Over_budget} — the scheduler maps it to
      [Timeout], exactly as for an in-process overrun;
    - {b crash detection}: pipe EOF + [waitpid] — an in-flight job on a
      dead worker is requeued up to [max_requeues] times
      ([serve.pool.requeues]), then surfaces as
      {!Gncg_runs.Scheduler.Crash_report};
    - {b respawn with backoff}: fault deaths respawn after
      [backoff_base * 2^k] seconds (capped at [backoff_max]); budget
      kills respawn immediately (the job's fault, not the worker's);
    - {b a circuit breaker}: [breaker_threshold] fault deaths within
      [breaker_window] seconds trip the breaker
      ([serve.pool.breaker_trips]) — the fleet is stopped and every
      subsequent {!dispatch} returns [None] so callers degrade to the
      in-process executor ([serve.pool.degraded_jobs]).

    Durability never depends on a worker: sweeps are dispatched spec by
    spec and the journal stays in the daemon, so a [kill -9] mid-sweep
    re-executes exactly the missing specs and the CSV is byte-identical
    to an undisturbed run. *)

type config = {
  workers : int;  (** fleet size, >= 1 *)
  liveness_deadline : float;  (** seconds of heartbeat silence before SIGKILL *)
  max_requeues : int;  (** re-dispatches of a job whose worker died *)
  backoff_base : float;  (** first respawn delay after a fault, seconds *)
  backoff_max : float;  (** respawn delay cap, seconds *)
  breaker_window : float;  (** sliding window for the restart storm, seconds *)
  breaker_threshold : int;  (** fault deaths within the window that trip it *)
  monitor_tick : float;  (** deadline-enforcement poll interval, seconds *)
}

val default_config : config
(** 1 worker, 3 s liveness deadline, 2 requeues, 50 ms–2 s backoff,
    5 faults / 10 s breaker, 20 ms monitor tick. *)

type proc = { pid : int; to_worker : out_channel; from_worker : in_channel }

type spawn = unit -> proc
(** Launches one worker process; called from supervisor threads on every
    (re)spawn, so it must be thread-safe.  May raise — a failed spawn is
    treated as a worker fault (backoff, breaker accounting). *)

val spawn_exec : string array -> spawn
(** [spawn_exec argv] launches [argv] via [Unix.create_process] with
    stdin/stdout piped to the supervisor and stderr inherited.  The
    production spawn: [spawn_exec [| Sys.executable_name; "worker" |]]. *)

type t

val create : ?config:config -> spawn:spawn -> unit -> t
(** Starts the fleet ([config.workers] lifecycle threads plus one
    deadline monitor) and returns immediately; workers come up
    asynchronously and dispatches block until one is ready.  Ignores
    SIGPIPE process-wide (worker pipes break by design).
    @raise Invalid_argument if [config.workers < 1]. *)

val dispatch :
  t ->
  ?budget:float ->
  Protocol.Worker_wire.payload ->
  [ `Run of Gncg_workload.Sweep.run | `Data of Protocol.Json.t ] option
(** Blocks until a worker is free, ships the payload, and waits for the
    result.  [`Run] answers a [Spec] dispatch, [`Data] a [Query].
    Returns [None] when the pool cannot serve (breaker open or shutting
    down) — the caller must degrade to in-process execution.  Safe to
    call from many threads; each blocked dispatcher claims its own
    worker.

    @raise Gncg_runs.Scheduler.Over_budget when the job overran [budget]
    and the worker was killed for it.
    @raise Gncg_runs.Scheduler.Crash_report when the job crashed inside
    the worker (worker-side message and frames) or the worker died
    mid-job more than [max_requeues] times. *)

val size : t -> int
(** Configured fleet size. *)

val status_json : t -> Protocol.Json.t
(** Per-worker liveness for [gncg client status]:
    [{"workers":[{"worker":0,"pid":…,"alive":…,"busy":…,
    "last_heartbeat_s":…,"restarts":…,"jobs_done":…}…],
    "restarts":…,"breaker_open":…}]. *)

val shutdown : t -> unit
(** SIGKILLs the fleet (workers are stateless; there is nothing to
    drain) and joins every supervisor thread.  Idempotent. *)
