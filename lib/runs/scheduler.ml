module Metric = Gncg_obs.Metric

(* Layer-4 probes: job throughput and the scheduler's failure
   accounting.  Counters are atomic, so the parallel workers can bump
   them concurrently; the per-job span event carries outcome and
   attempts. *)
let c_jobs = Metric.Counter.make "runs.jobs_executed"
let c_retries = Metric.Counter.make "runs.retries"
let c_timeouts = Metric.Counter.make "runs.timeouts"
let c_crashes = Metric.Counter.make "runs.crashes"
let h_job_s = Metric.Histogram.make "runs.job_seconds"

let outcome_label = function
  | `Completed -> "completed"
  | `Diverged -> "diverged"
  | `Timeout -> "timeout"
  | `Crashed -> "crashed"

type crash = { msg : string; backtrace : string }

exception Over_budget
exception Crash_report of crash

let () =
  Printexc.register_printer (function
    | Over_budget -> Some "Scheduler.Over_budget"
    | Crash_report { msg; _ } -> Some (Printf.sprintf "Scheduler.Crash_report(%s)" msg)
    | _ -> None)

type 'r outcome =
  | Completed of 'r
  | Diverged of 'r
  | Timeout
  | Crashed of crash

type 'r report = { outcome : 'r outcome; attempts : int; elapsed : float }

(* One job's metrics and span event. *)
let observe_report report =
  Metric.Counter.incr c_jobs;
  Metric.Histogram.observe h_job_s report.elapsed;
  if report.attempts > 1 then Metric.Counter.add c_retries (report.attempts - 1);
  let tag =
    match report.outcome with
    | Completed _ -> `Completed
    | Diverged _ -> `Diverged
    | Timeout ->
      Metric.Counter.incr c_timeouts;
      `Timeout
    | Crashed _ ->
      Metric.Counter.incr c_crashes;
      `Crashed
  in
  if Gncg_obs.Sink.active () then
    Gncg_obs.Sink.emit
      {
        Gncg_obs.Sink.kind = "span";
        name = "runs.job";
        t_ns = Gncg_obs.Clock.now_ns () -. (report.elapsed *. 1e9);
        fields =
          [
            ("outcome", Gncg_obs.Sink.Str (outcome_label tag));
            ("attempts", Gncg_obs.Sink.Int report.attempts);
            ("dur_ns", Gncg_obs.Sink.Float (report.elapsed *. 1e9));
          ];
      }

(* One job, with the budget / retry / divergence classification. *)
let attempt ~budget ~retries ~diverged exec job =
  let rec go attempt_no =
    let t0 = Unix.gettimeofday () in
    match exec job with
    | result ->
      let elapsed = Unix.gettimeofday () -. t0 in
      let outcome =
        if elapsed > budget then Timeout
        else if diverged result then Diverged result
        else Completed result
      in
      { outcome; attempts = attempt_no; elapsed }
    | exception Over_budget ->
      (* The executor enforced the budget itself (a supervisor that
         SIGKILLed a worker process on overrun): record [Timeout]
         without retrying, exactly as the post-hoc path would. *)
      { outcome = Timeout; attempts = attempt_no; elapsed = Unix.gettimeofday () -. t0 }
    | exception Crash_report c ->
      (* The executor already classified the crash (e.g. the exception
         was raised in a worker process and shipped back with its own
         frames): keep that record instead of the supervisor-side one. *)
      let elapsed = Unix.gettimeofday () -. t0 in
      if attempt_no <= retries then go (attempt_no + 1)
      else { outcome = Crashed c; attempts = attempt_no; elapsed }
    | exception e ->
      (* Grab the backtrace before any further call can clobber it; it is
         empty unless [Printexc.record_backtrace] is on (the CLI enables
         it, and CI exports OCAMLRUNPARAM=b). *)
      let backtrace = Printexc.get_backtrace () in
      let elapsed = Unix.gettimeofday () -. t0 in
      if attempt_no <= retries then go (attempt_no + 1)
      else
        {
          outcome = Crashed { msg = Printexc.to_string e; backtrace };
          attempts = attempt_no;
          elapsed;
        }
  in
  let report = go 1 in
  observe_report report;
  report

let run ?domains ?(budget = Float.infinity) ?(retries = 0) ?(diverged = fun _ -> false)
    ?(on_result = fun _ _ -> ()) exec jobs =
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Scheduler.run: domains must be positive"
    | None -> Gncg_util.Exec.default_domains ()
  in
  let jobs = Array.of_list jobs in
  let result_lock = Mutex.create () in
  let reports =
    Gncg_util.Exec.init ~exec:(Gncg_util.Exec.par ~domains ()) (Array.length jobs)
      (fun i ->
        let report = attempt ~budget ~retries ~diverged exec jobs.(i) in
        Mutex.protect result_lock (fun () -> on_result jobs.(i) report);
        report)
  in
  List.combine (Array.to_list jobs) (Array.to_list reports)
