(** The worker side of the pool: a crash-isolated job executor.

    A worker is a child process of the daemon running {!main} over its
    stdin/stdout ([gncg worker --stdio]), speaking
    {!Protocol.Worker_wire}.  It executes one dispatched payload at a
    time — a sweep spec through {!Gncg_runs.Job.execute} or a whole
    query job through {!eval_query} — and ships the result (or the
    crash, message and frames included) back to the supervisor.  A
    heartbeat thread beats every [heartbeat] seconds so the supervisor's
    liveness deadline can tell a wedged process from a busy one.

    The module also owns the host cache and query evaluation the
    session historically kept inline, so the in-process degraded path
    and the worker path run literally the same code. *)

(** Per-process host cache keyed by the instance content hash.
    Thread-safe. *)
module Cache : sig
  type t

  val create : unit -> t

  val size : t -> int
end

val eval_query :
  ?exec:Gncg_util.Exec.t ->
  Cache.t ->
  Protocol.job ->
  string * Protocol.Json.t
(** Evaluates an [Eq_check] or [Best_response] job against the cache and
    returns [(event_name, payload)] — exactly the event the session
    publishes on the job's stream.  [exec] (default [Seq]: pool workers
    parallelize across processes, not within a query) drives the
    equilibrium scan.  @raise Invalid_argument on a [Sweep] job — sweeps
    are dispatched spec by spec so the journal stays in the daemon. *)

val main : ?chaos:Gncg_runs.Chaos.process_plan -> in_channel -> out_channel -> unit
(** The worker loop: says hello, beats every 0.25 seconds from a side
    thread, then executes [run] requests one at a time until EOF or
    [quit].  Returns normally on every orderly or disorderly supervisor
    exit (EOF, closed pipe); never raises for input.  [chaos] injects process-level faults per
    {!Gncg_runs.Chaos.decide_process} keyed on the payload key and the
    supervisor-tracked attempt number.  Sweep specs run through
    {!Gncg_runs.Job.execute}, queries sequentially.  Ignores SIGPIPE
    and enables backtrace recording. *)
