(** Durable, resumable sweep batches: the glue between {!Job},
    {!Journal} and {!Scheduler} that the CLI, the bench harness and the
    experiment reproduction drive. *)

type progress = {
  total : int;  (** batch size *)
  executed : int;  (** jobs run by {e this} invocation *)
  skipped : int;  (** jobs already terminal in the journal *)
  completed : int;
  diverged : int;
  timeout : int;
  crashed : int;  (** classification counts over the whole batch *)
  retries : int;
      (** extra attempts beyond the first, summed over this invocation's
          fresh reports (also published as the
          [runs.batch_retry_attempts] counter) *)
}

val pp_progress : Format.formatter -> progress -> unit

type summary = {
  runs : Gncg_workload.Sweep.run list;
      (** [Completed]/[Diverged] run records, in job order ({!Job.jobs}),
          feeding {!Gncg_workload.Report} unchanged.  A timed-out or
          crashed job has no row. *)
  progress : progress;
}

val run :
  ?domains:int ->
  ?budget:float ->
  ?retries:int ->
  ?exec:(Job.spec -> Gncg_workload.Sweep.run) ->
  ?on_result:(Job.spec -> Gncg_workload.Sweep.run Scheduler.report -> unit) ->
  ?journal:string ->
  Job.grid ->
  summary
(** Executes every job of the grid through the runs scheduler: the one
    path every sweep row takes (the CLI's [sweep] and [sweep run], the
    serve daemon, the reproduction harness).  With
    [journal], creates/truncates the file first and appends every result
    as it lands, so the batch can be killed and picked up by {!resume}.
    [exec] (default {!Job.execute}) is the fault-injection seam the
    {!Chaos} harness wraps; production callers never pass it.
    [on_result] fires once per freshly executed job as it lands,
    serialized under the scheduler's result lock and {e after} the
    journal append — the streaming seam the serve daemon relays per-job
    results from. *)

val resume :
  ?domains:int ->
  ?budget:float ->
  ?retries:int ->
  ?exec:(Job.spec -> Gncg_workload.Sweep.run) ->
  ?on_result:(Job.spec -> Gncg_workload.Sweep.run Scheduler.report -> unit) ->
  journal:string ->
  unit ->
  (summary, string) result
(** Reloads the journal, re-derives the job list from its manifest, and
    executes only the jobs with no terminal entry ([Timeout]/[Crashed]
    entries are retried; [Completed]/[Diverged] are skipped).  Journaled
    and fresh results are merged in job order, so an interrupted-then-
    resumed sweep reports exactly what an uninterrupted one would.
    [on_result] fires only for the re-executed jobs. *)

val status :
  journal:string ->
  (Job.grid * progress * (string * string) list, string) result
(** Read-only: the manifest's grid plus classification counts ([executed] is 0
    by construction — nothing runs).  The third component lists, per
    still-pending job whose latest journaled classification is a crash,
    its [(job hash, crash detail)] — the detail is the
    {!Scheduler.crash} message with the recorded backtrace appended, so
    [gncg sweep status] can print what actually went wrong. *)
