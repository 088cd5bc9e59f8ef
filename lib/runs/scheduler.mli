(** Job scheduler over OCaml 5 domains.

    Sweep batches are heterogeneous: run times vary by orders of
    magnitude across [alpha] and [n], so a static split of the job list
    would leave one domain holding the slow ones while the others idle.
    The scheduler runs the jobs on {!Gncg_util.Exec}'s domain loop
    instead: every worker claims the next unstarted job from a shared
    atomic counter, in input order, so no domain idles while a job is
    unstarted.  How close that comes to the best split depends on where
    the slow jobs sit in the list; docs/RUNS.md gives the measurements
    on a sweep grid.

    One pathological instance never kills a batch: every job execution is
    classified — an uncaught exception is [Crashed] (and retried up to
    [retries] extra attempts), a job whose wall-clock exceeds [budget] is
    [Timeout], and a finished result is [Diverged] or [Completed]
    according to the caller's predicate.

    The module is generic in the job and result types so that the tests
    can inject crashing, slow and heterogeneous jobs; the sweep
    instantiation lives in {!Batch}. *)

type crash = {
  msg : string;  (** [Printexc.to_string] of the uncaught exception *)
  backtrace : string;
      (** Backtrace captured at the catch site — empty unless backtrace
          recording is on ([Printexc.record_backtrace true] or
          [OCAMLRUNPARAM=b]; the CLI enables it at startup). *)
}

exception Over_budget
(** Escape hatch for executors that enforce the wall-clock budget
    {e preemptively} instead of post-hoc — the serve worker pool SIGKILLs
    a worker process on overrun and raises this.  {!run} records
    [Timeout] for the job (no retry, matching the post-hoc rule that
    deterministic jobs are not re-run into the same wall). *)

exception Crash_report of crash
(** Escape hatch for executors that already hold a classified crash —
    e.g. an exception raised inside a worker process, whose message and
    frames were shipped back over the wire.  {!run} retries as for any
    crash and, once retries are exhausted, records exactly the carried
    {!crash} instead of re-deriving one from the supervisor's stack. *)

type 'r outcome =
  | Completed of 'r
  | Diverged of 'r
      (** The job finished but its result is classified unconverged
          (e.g. dynamics that cycled or ran out of steps). *)
  | Timeout
      (** Wall-clock budget exceeded.  Enforcement is post-hoc: a running
          job cannot be preempted inside a domain, but every job is
          finite (dynamics are bounded by [max_steps]), so the budget
          bounds what is {e recorded}, not what runs.  Deterministic jobs
          are not retried on timeout — the re-run would time out again. *)
  | Crashed of crash  (** Uncaught exception, after all retries. *)

type 'r report = { outcome : 'r outcome; attempts : int; elapsed : float }
(** [attempts] counts executions (1 + retries used); [elapsed] is the
    wall-clock of the last attempt in seconds. *)

val run :
  ?domains:int ->
  ?budget:float ->
  ?retries:int ->
  ?diverged:('r -> bool) ->
  ?on_result:('a -> 'r report -> unit) ->
  ('a -> 'r) ->
  'a list ->
  ('a * 'r report) list
(** [run exec jobs] executes every job and returns the reports in the
    input order (execution order is scheduler-dependent; results must
    not be).  [on_result] fires once per job as it finishes, serialized
    under a lock — the journal appends from it.  [domains] defaults to
    {!Gncg_util.Exec.default_domains}; on one domain (or at most one
    job) {!Gncg_util.Exec.init} runs the jobs in input order on the
    calling domain, with the same classification.  [budget] defaults to
    no limit; [retries] to [0]; [diverged] to [fun _ -> false]. *)
