module Sweep = Gncg_workload.Sweep
module Metric = Gncg_obs.Metric

(* Retry pressure per batch invocation: total extra attempts beyond the
   first, summed over the batch's fresh reports. *)
let c_batch_retries = Metric.Counter.make "runs.batch_retry_attempts"

type config = {
  model : Gncg_workload.Instances.model;
  ns : int list;
  alphas : float list;
  seeds : int list;
  rule : Job.rule;
  max_steps : int;
}

let config ?(rule = Job.Greedy_response) ?(max_steps = 5000) model ~ns ~alphas ~seeds =
  { model; ns; alphas; seeds; rule; max_steps }

let jobs c =
  List.map
    (fun (n, alpha, seed) ->
      Job.make ~rule:c.rule ~max_steps:c.max_steps c.model ~n ~alpha ~seed)
    (Sweep.cartesian ~ns:c.ns ~alphas:c.alphas ~seeds:c.seeds)

let manifest c =
  {
    Journal.schema = 1;
    model = Job.model_to_string c.model;
    ns = c.ns;
    alphas = c.alphas;
    seeds = c.seeds;
    rule = c.rule;
    max_steps = c.max_steps;
    jobs = List.length c.ns * List.length c.alphas * List.length c.seeds;
  }

type progress = {
  total : int;
  executed : int;
  skipped : int;
  completed : int;
  diverged : int;
  timeout : int;
  crashed : int;
  retries : int;
}

let pp_progress fmt p =
  Format.fprintf fmt
    "%d jobs: re-executed %d jobs, skipped %d already journaled (completed %d, \
     diverged %d, timeout %d, crashed %d, retry attempts %d)"
    p.total p.executed p.skipped p.completed p.diverged p.timeout p.crashed p.retries

type summary = { runs : Sweep.run list; progress : progress }

let entry_of_report job (report : Sweep.run Scheduler.report) =
  let status, result =
    match report.outcome with
    | Scheduler.Completed r -> (Journal.Completed, Some r)
    | Scheduler.Diverged r -> (Journal.Diverged, Some r)
    | Scheduler.Timeout -> (Journal.Timeout, None)
    | Scheduler.Crashed { msg; backtrace } ->
      (* The journal keeps a single string: message first, backtrace (when
         recorded) appended so a post-mortem has the frames. *)
      ( Journal.Crashed
          (if backtrace = "" then msg else msg ^ "\n" ^ String.trim backtrace),
        None )
  in
  {
    Journal.job = Job.hash job;
    status;
    attempts = report.attempts;
    elapsed = report.elapsed;
    result;
  }

(* Runs [pending] through the scheduler (journaling as results land) and
   merges with the already-terminal entries, in job order.  [exec] is the
   fault-injection seam: production always passes [Job.execute]; the
   chaos harness wraps it. *)
let run_pending ?domains ?budget ?retries ?(exec = Job.execute) ?on_result:notify
    journal_handle all_jobs terminal pending =
  let on_result job report =
    (match journal_handle with
    | None -> ()
    | Some j -> Journal.append j (entry_of_report job report));
    (* Journal first, then notify: a subscriber crash (the streaming
       seam is caller code) must never lose the durable record. *)
    match notify with None -> () | Some f -> f job report
  in
  let reports =
    Scheduler.run ?domains ?budget ?retries
      ~diverged:(fun (r : Sweep.run) -> not r.Sweep.converged)
      ~on_result exec pending
  in
  let fresh = Hashtbl.create (List.length reports) in
  List.iter
    (fun (job, report) -> Hashtbl.replace fresh (Job.hash job) report)
    reports;
  let batch_retries =
    List.fold_left (fun acc (_, r) -> acc + (r.Scheduler.attempts - 1)) 0 reports
  in
  Metric.Counter.add c_batch_retries batch_retries;
  let completed = ref 0
  and diverged = ref 0
  and timeout = ref 0
  and crashed = ref 0 in
  let runs =
    List.filter_map
      (fun job ->
        let h = Job.hash job in
        match Hashtbl.find_opt fresh h with
        | Some { Scheduler.outcome = Completed r; _ } -> incr completed; Some r
        | Some { Scheduler.outcome = Diverged r; _ } -> incr diverged; Some r
        | Some { Scheduler.outcome = Timeout; _ } -> incr timeout; None
        | Some { Scheduler.outcome = Crashed _; _ } -> incr crashed; None
        | None -> (
          match Hashtbl.find_opt terminal h with
          | Some { Journal.status = Completed; result; _ } -> incr completed; result
          | Some { Journal.status = Diverged; result; _ } -> incr diverged; result
          | Some _ | None ->
            (* A hash neither pending nor terminal cannot arise: pending
               is defined as the complement of terminal. *)
            None))
      all_jobs
  in
  let progress =
    {
      total = List.length all_jobs;
      executed = List.length pending;
      skipped = List.length all_jobs - List.length pending;
      completed = !completed;
      diverged = !diverged;
      timeout = !timeout;
      crashed = !crashed;
      retries = batch_retries;
    }
  in
  { runs; progress }

let run ?domains ?budget ?retries ?exec ?on_result ?journal c =
  let all_jobs = jobs c in
  let handle = Option.map (fun path -> Journal.create path (manifest c)) journal in
  let result =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close handle)
      (fun () -> run_pending ?domains ?budget ?retries ?exec ?on_result handle all_jobs
          (Hashtbl.create 0) all_jobs)
  in
  result

let ( let* ) = Result.bind

let resume ?domains ?budget ?retries ?exec ?on_result ~journal () =
  let* handle, loaded = Journal.append_to journal in
  let* all_jobs = Journal.manifest_jobs loaded.Journal.manifest in
  let terminal = Journal.terminal loaded.Journal.entries in
  let pending =
    List.filter (fun job -> not (Hashtbl.mem terminal (Job.hash job))) all_jobs
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Journal.close handle)
      (fun () ->
        run_pending ?domains ?budget ?retries ?exec ?on_result (Some handle) all_jobs
          terminal pending)
  in
  Ok result

let status ~journal =
  let* loaded = Journal.load journal in
  let* all_jobs = Journal.manifest_jobs loaded.Journal.manifest in
  let terminal = Journal.terminal loaded.Journal.entries in
  let count pred =
    Hashtbl.fold (fun _ e acc -> if pred e.Journal.status then acc + 1 else acc)
      terminal 0
  in
  (* Timeouts/crashes are non-terminal (they will be retried): count the
     latest non-terminal classification of still-pending jobs instead. *)
  let latest = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace latest e.Journal.job e) loaded.Journal.entries;
  let timeout = ref 0 and crashed = ref 0 in
  let crashes = ref [] in
  List.iter
    (fun job ->
      let h = Job.hash job in
      if not (Hashtbl.mem terminal h) then
        match Hashtbl.find_opt latest h with
        | Some { Journal.status = Timeout; _ } -> incr timeout
        | Some { Journal.status = Crashed detail; _ } ->
          incr crashed;
          (* [detail] is the journaled message, with the backtrace frames
             appended when recording was on — see [entry_of_report]. *)
          crashes := (h, detail) :: !crashes
        | _ -> ())
    all_jobs;
  let progress =
    {
      total = List.length all_jobs;
      executed = 0;
      skipped = Hashtbl.length terminal;
      completed = count (function Journal.Completed -> true | _ -> false);
      diverged = count (function Journal.Diverged -> true | _ -> false);
      timeout = !timeout;
      crashed = !crashed;
      retries = 0;
    }
  in
  Ok (loaded.Journal.manifest, progress, List.rev !crashes)
