(** The daemon's session manager: job table, executors, host cache.

    One session outlives every connection.  Submissions land in a FIFO
    queue consumed by background executor threads — one without a
    worker pool, one per worker with one ([workers > 0]); each job's
    progress is published as an append-only event stream that any number
    of watchers (connection threads) replay and follow concurrently.
    Sweep jobs run through {!Gncg_runs.Batch} with a journal under the
    session's state directory named by the job's content key, so a
    killed-and-restarted daemon that receives the same submission
    resumes the journal and re-executes only the missing jobs — the
    crash-tolerance story is exactly the one the runs subsystem already
    proves under chaos testing.

    With [workers > 0] execution is crash-isolated: sweeps are
    dispatched spec by spec and queries whole to a supervised {!Pool} of
    worker processes.  The journal never leaves the daemon, so a
    [kill -9]'d worker costs a requeue, not data; when the pool cannot
    serve (circuit breaker open, shutdown) jobs degrade transparently to
    the in-process path below.

    Query jobs (equilibrium checks, best-response probes) are served
    from a host cache keyed by the instance's content hash: repeated
    queries against the same (model, n, alpha, seed) skip host-metric
    construction entirely, which is what makes the daemon cheaper than
    one CLI process per query.  In-process queries share the session
    cache; each pool worker keeps its own.

    Thread-safety: every public function may be called from any number
    of connection threads. *)

type t

type submitted = {
  job_id : string;
  attached : bool;
      (** [true] when the submission deduplicated onto an existing
          non-cancelled job with the same content key — the caller
          should watch that job instead of expecting a fresh run. *)
}

val create :
  ?state_dir:string ->
  ?domains:int ->
  ?budget:float ->
  ?retries:int ->
  ?trace_stream:bool ->
  ?exec_seam:(Gncg_runs.Job.spec -> Gncg_workload.Sweep.run) ->
  ?pool:Pool.config * Pool.spawn ->
  unit ->
  t
(** Starts the executor threads.  [state_dir] (default
    ["gncg-serve-state"], created if missing) holds the sweep journals.
    [domains]/[budget]/[retries] are the sweep defaults a job's own
    fields override.  [trace_stream] installs a streaming observability
    sink for the duration of each job, relaying engine trace events as
    ["obs"] events on the running job's stream (for [watch ~trace]).
    [exec_seam] is the per-sweep-job fault-injection seam
    ({!Gncg_runs.Batch.run}'s [?exec]); production callers never pass
    it — the chaos tests do.  With a pool it is also the degraded
    in-process executor.

    [pool] (default: none, single in-process executor) starts a
    supervised {!Pool} of [config.workers] worker processes launched by
    [spawn]; the CLI passes {!Pool.spawn_exec} to re-execute itself as
    [gncg worker].
    @raise Invalid_argument if [config.workers < 1]. *)

val submit : t -> Protocol.job -> (submitted, Gncg_util.Gncg_error.t) result
(** Validates, dedups by content key, enqueues.  Refused with [Io] when
    the session is draining. *)

val job_state : t -> string -> (Protocol.job_state, Gncg_util.Gncg_error.t) result

val cancel : t -> string -> (bool, Gncg_util.Gncg_error.t) result
(** [Ok true] when a queued job was cancelled; [Ok false] when the job
    is already running or terminal (a running job cannot be preempted —
    domains are not interruptible; its sweep journal still makes the
    work durable). *)

val fetch_csv : t -> string -> (string, Gncg_util.Gncg_error.t) result
(** The completed sweep's runs as CSV (the {!Gncg_workload.Report}
    encoding, byte-identical to [gncg sweep run --format csv]).
    Refused for query jobs and non-[Done] jobs. *)

val status_json : t -> string option -> (Protocol.Json.t, Gncg_util.Gncg_error.t) result
(** One job, or the whole table plus daemon gauges (uptime, cache size,
    queue length, per-worker pool liveness under ["pool"]).  A job that
    died inside a worker carries a ["crash"] object with the worker-side
    message and backtrace frames, even if no watcher saw it fail. *)

val events_after :
  t ->
  job:string ->
  since:int ->
  (Protocol.event list * bool, Gncg_util.Gncg_error.t) result
(** Events with [seq > since], oldest first, and whether the job is
    terminal.  Blocks until at least one new event exists or the job is
    terminal — the long-poll primitive the server's watch loop drives. *)

val drain : t -> unit
(** Graceful shutdown: refuse new submissions, run the queue dry, stop
    every executor, shut the worker pool down, and wake every blocked
    watcher.  Idempotent; returns once the executors have exited. *)

val pool_status : t -> Protocol.Json.t option
(** {!Pool.status_json} when a pool is running, [None] otherwise. *)

val workers : t -> int
(** Configured pool size; 0 without a pool. *)

val hosts_cached : t -> int

val uptime : t -> float
