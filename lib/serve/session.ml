module P = Protocol
module W = Protocol.Worker_wire
module Json = Gncg_runs.Json
module Job = Gncg_runs.Job
module Batch = Gncg_runs.Batch
module Journal = Gncg_runs.Journal
module Scheduler = Gncg_runs.Scheduler
module E = Gncg_util.Gncg_error
module Metric = Gncg_obs.Metric
module Span = Gncg_obs.Span

let ctx = "Serve.Session"

(* serve.* counters: daemon-side pressure.  The host-cache counters live
   with the cache in {!Worker}. *)
let c_submitted = Metric.Counter.make "serve.jobs_submitted"
let c_attached = Metric.Counter.make "serve.jobs_attached"
let c_completed = Metric.Counter.make "serve.jobs_completed"
let c_failed = Metric.Counter.make "serve.jobs_failed"
let c_cancelled = Metric.Counter.make "serve.jobs_cancelled"
let c_events = Metric.Counter.make "serve.events"
let c_sweep_results = Metric.Counter.make "serve.sweep_results"

type jrec = {
  id : string;
  key : string;
  job : P.job;
  mutable state : P.job_state;
  mutable crash : Scheduler.crash option;
      (* worker-side message and frames when the job died in a worker *)
  mutable events : P.event list;  (* newest first *)
  mutable n_events : int;
  mutable csv : string option;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  state_dir : string;
  domains : int option;
  budget : float option;
  retries : int option;
  trace_stream : bool;
  exec_seam : (Job.spec -> Gncg_workload.Sweep.run) option;
  pool : Pool.t option;
  jobs : (string, jrec) Hashtbl.t;
  by_key : (string, string) Hashtbl.t;
  queue : string Queue.t;
  cache : Worker.Cache.t;
  mutable next_id : int;
  mutable running : string list;
  mutable live_executors : int;
  mutable draining : bool;
  mutable stopped : bool;
  mutable executors : Thread.t list;
  started_at : float;
}

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- events ------------------------------------------------------------ *)

(* Caller must hold [t.mutex]. *)
let push_event_locked t r name data =
  r.n_events <- r.n_events + 1;
  r.events <- { P.seq = r.n_events; name; data } :: r.events;
  Metric.Counter.incr c_events;
  Condition.broadcast t.cond

let push_event t r name data =
  Mutex.lock t.mutex;
  push_event_locked t r name data;
  Mutex.unlock t.mutex

let set_state t r state =
  Mutex.lock t.mutex;
  r.state <- state;
  push_event_locked t r "job-state"
    (Json.Obj
       (("state", Json.Str (P.job_state_string state))
       ::
       (match state with
       | P.Failed msg -> [ ("error", Json.Str msg) ]
       | _ -> [])));
  Mutex.unlock t.mutex

(* --- job execution ----------------------------------------------------- *)

let report_event_data spec (report : Gncg_workload.Sweep.run Scheduler.report) =
  let status, extra =
    match report.outcome with
    | Scheduler.Completed r -> ("completed", [ ("run", Journal.run_to_json r) ])
    | Scheduler.Diverged r -> ("diverged", [ ("run", Journal.run_to_json r) ])
    | Scheduler.Timeout -> ("timeout", [])
    | Scheduler.Crashed { msg; _ } -> ("crashed", [ ("crash", Json.Str msg) ])
  in
  Json.Obj
    ([
       ("job", Json.Str (Job.hash spec));
       ("n", Json.num_int spec.Job.n);
       ("alpha", Json.Num spec.Job.alpha);
       ("seed", Json.num_int spec.Job.seed);
       ("status", Json.Str status);
       ("attempts", Json.num_int report.attempts);
       ("elapsed_s", Json.Num report.elapsed);
     ]
    @ extra)

let progress_json (p : Batch.progress) =
  Json.Obj
    [
      ("total", Json.num_int p.total);
      ("executed", Json.num_int p.executed);
      ("skipped", Json.num_int p.skipped);
      ("completed", Json.num_int p.completed);
      ("diverged", Json.num_int p.diverged);
      ("timeout", Json.num_int p.timeout);
      ("crashed", Json.num_int p.crashed);
      ("retries", Json.num_int p.retries);
    ]

let in_process_exec t = Option.value t.exec_seam ~default:Job.execute

(* The sweep execution seam for {!Batch.run}: ship the spec to a worker;
   if the pool cannot serve (breaker open, shutdown), degrade to the
   in-process executor — exactly the [--workers 0] path.  Crash, timeout
   and requeue classification happens inside {!Pool.dispatch} via the
   scheduler's escape-hatch exceptions, so the journal entries come out
   the same whether the spec ran in a worker or in the daemon. *)
let sweep_exec t ~budget =
  match t.pool with
  | None -> t.exec_seam
  | Some pool ->
    Some
      (fun spec ->
        match Pool.dispatch pool ?budget (W.Spec spec) with
        | Some (`Run run) -> run
        | Some (`Data _) ->
          raise
            (Scheduler.Crash_report
               {
                 msg = "worker answered a spec dispatch with query data";
                 backtrace = "";
               })
        | None -> in_process_exec t spec)

let sweep_domains t =
  (* With a pool, batch concurrency is the fleet size: one scheduler
     worker per process keeps every worker busy without queueing
     dispatches (which would distort budget accounting). *)
  match t.pool with Some pool -> Some (Pool.size pool) | None -> t.domains

let run_sweep t r config job_budget job_retries =
  let journal = Filename.concat t.state_dir ("sweep-" ^ r.key ^ ".jsonl") in
  let budget = match job_budget with Some _ as b -> b | None -> t.budget in
  let retries =
    match (job_retries, t.retries) with
    | Some k, _ -> Some k
    | None, session -> session
  in
  let exec = sweep_exec t ~budget in
  let domains = sweep_domains t in
  let on_result spec report =
    Metric.Counter.incr c_sweep_results;
    push_event t r "job-result" (report_event_data spec report)
  in
  let fresh () = Batch.run ?domains ?budget ?retries ?exec ~on_result ~journal config in
  let summary =
    if Sys.file_exists journal then
      (* Same content key ⇒ same generating config, so the journal on
         disk is this sweep's: resume it and re-execute only what is
         missing.  A journal too torn to reload (e.g. the daemon died
         inside the manifest write) is started over. *)
      match Batch.resume ?domains ?budget ?retries ?exec ~on_result ~journal () with
      | Ok s -> s
      | Error msg ->
        push_event t r "journal-reset"
          (Json.Obj [ ("journal", Json.Str journal); ("error", Json.Str msg) ]);
        fresh ()
    else fresh ()
  in
  Mutex.lock t.mutex;
  r.csv <- Some (Gncg_workload.Report.runs_to_csv summary.Batch.runs);
  push_event_locked t r "summary" (progress_json summary.Batch.progress);
  Mutex.unlock t.mutex

let exec_of t = Gncg_util.Exec.Par { domains = t.domains }

let query_event_name = function
  | P.Eq_check _ -> "verdict"
  | P.Best_response _ -> "best-response"
  | P.Sweep _ -> invalid_arg "Session.query_event_name: not a query"

(* Queries ship whole to a worker (each worker keeps its own host
   cache); without a pool — or with the breaker open — they evaluate
   in-process against the session cache, through the very same
   {!Worker.eval_query}. *)
let run_query t r job =
  let name = query_event_name job in
  let data =
    match t.pool with
    | Some pool -> (
      match Pool.dispatch pool (W.Query job) with
      | Some (`Data data) -> data
      | Some (`Run _) ->
        raise
          (Scheduler.Crash_report
             { msg = "worker answered a query dispatch with a sweep run"; backtrace = "" })
      | None -> snd (Worker.eval_query ~exec:(exec_of t) t.cache job))
    | None -> snd (Worker.eval_query ~exec:(exec_of t) t.cache job)
  in
  push_event t r name data

let execute t r =
  match r.job with
  | P.Sweep { config; budget; retries } -> run_sweep t r config budget retries
  | (P.Eq_check _ | P.Best_response _) as job -> run_query t r job

let executor_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.cond t.mutex
    done;
    if Queue.is_empty t.queue then begin
      (* Draining and dry: the last executor out marks the session
         stopped. *)
      t.live_executors <- t.live_executors - 1;
      if t.live_executors = 0 then t.stopped <- true;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    end
    else begin
      let id = Queue.pop t.queue in
      let r = Hashtbl.find t.jobs id in
      if r.state <> P.Queued then begin
        (* Cancelled while queued: nothing to run. *)
        Mutex.unlock t.mutex;
        loop ()
      end
      else begin
        t.running <- id :: t.running;
        Mutex.unlock t.mutex;
        set_state t r P.Running;
        (match
           Span.with_
             ~fields:(fun () -> [ ("job", Gncg_obs.Sink.Str id) ])
             "serve.job"
             (fun () -> execute t r)
         with
        | () ->
          Metric.Counter.incr c_completed;
          set_state t r P.Done
        | exception exn ->
          Metric.Counter.incr c_failed;
          let msg =
            match exn with
            | Scheduler.Crash_report c ->
              (* Keep the worker-side frames: [gncg client status] shows
                 them even when no watcher saw the job die. *)
              Mutex.lock t.mutex;
              r.crash <- Some c;
              Mutex.unlock t.mutex;
              c.Scheduler.msg
            | Scheduler.Over_budget -> "job exceeded its wall-clock budget"
            | E.Error e -> E.to_string e
            | exn -> Printexc.to_string exn
          in
          set_state t r (P.Failed msg));
        Mutex.lock t.mutex;
        t.running <- List.filter (fun running_id -> running_id <> id) t.running;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        loop ()
      end
    end
  in
  loop ()

(* --- the streaming observability sink ---------------------------------- *)

let sink_value_to_json = function
  | Gncg_obs.Sink.Int i -> Json.num_int i
  | Gncg_obs.Sink.Float x -> Json.Num x
  | Gncg_obs.Sink.Str s -> Json.Str s
  | Gncg_obs.Sink.Bool b -> Json.Bool b

let sink_event_to_json (e : Gncg_obs.Sink.event) =
  Json.Obj
    ([ ("kind", Json.Str e.kind); ("name", Json.Str e.name); ("t_ns", Json.Num e.t_ns) ]
    @ List.map (fun (k, v) -> (k, sink_value_to_json v)) e.fields)

(* Engine trace events are relayed onto the stream of whatever job is
   running when they fire; events between jobs — or while several jobs
   run at once and attribution would be a guess — are dropped.  The
   callback runs on arbitrary engine domains — it only takes the
   session mutex, which no caller holds across engine work. *)
let install_trace_stream t =
  Gncg_obs.Sink.install
    (Some
       (Gncg_obs.Sink.callback (fun e ->
            Mutex.lock t.mutex;
            (match t.running with
            | [ id ] -> (
              match Hashtbl.find_opt t.jobs id with
              | Some r -> push_event_locked t r "obs" (sink_event_to_json e)
              | None -> ())
            | _ -> ());
            Mutex.unlock t.mutex)))

(* --- public api -------------------------------------------------------- *)

type submitted = { job_id : string; attached : bool }

let create ?(state_dir = "gncg-serve-state") ?domains ?budget ?retries
    ?(trace_stream = false) ?exec_seam ?pool () =
  mkdir_p state_dir;
  let pool = Option.map (fun (config, spawn) -> Pool.create ~config ~spawn ()) pool in
  (* One executor per worker keeps the fleet busy (a query occupies one
     worker end to end); without a pool, execution is single-file as
     before. *)
  let executors = match pool with Some p -> Pool.size p | None -> 1 in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      state_dir;
      domains;
      budget;
      retries;
      trace_stream;
      exec_seam;
      pool;
      jobs = Hashtbl.create 64;
      by_key = Hashtbl.create 64;
      queue = Queue.create ();
      cache = Worker.Cache.create ();
      next_id = 1;
      running = [];
      live_executors = executors;
      draining = false;
      stopped = false;
      executors = [];
      started_at = Unix.gettimeofday ();
    }
  in
  if trace_stream then install_trace_stream t;
  t.executors <- List.init executors (fun _ -> Thread.create executor_loop t);
  t

let validate_job job =
  match job with
  | P.Eq_check { n; check = Gncg.Equilibrium.NE; _ } when n > 12 ->
    E.failf ~context:ctx Bounds
      "exact NE checks are exponential; n = %d exceeds the daemon's limit of 12" n
  | P.Best_response { n; agent; _ } when agent < 0 || agent >= n ->
    E.failf ~context:ctx Bounds "agent %d out of range [0, %d)" agent n
  | _ -> Ok ()

let submit t job =
  match validate_job job with
  | Error _ as e -> e
  | Ok () ->
    Mutex.lock t.mutex;
    let result =
      if t.draining then
        E.fail ~context:ctx Io "the daemon is draining and refuses new submissions"
      else begin
        let key = P.job_key job in
        let attach =
          match Hashtbl.find_opt t.by_key key with
          | Some id -> (
            match Hashtbl.find_opt t.jobs id with
            | Some r when r.state <> P.Cancelled && (match r.state with P.Failed _ -> false | _ -> true) ->
              Some id
            | _ -> None)
          | None -> None
        in
        match attach with
        | Some id ->
          Metric.Counter.incr c_attached;
          Ok { job_id = id; attached = true }
        | None ->
          let id = Printf.sprintf "j%d" t.next_id in
          t.next_id <- t.next_id + 1;
          let r =
            {
              id;
              key;
              job;
              state = P.Queued;
              crash = None;
              events = [];
              n_events = 0;
              csv = None;
            }
          in
          Hashtbl.replace t.jobs id r;
          Hashtbl.replace t.by_key key id;
          Queue.push id t.queue;
          Metric.Counter.incr c_submitted;
          push_event_locked t r "job-state"
            (Json.Obj [ ("state", Json.Str "queued"); ("key", Json.Str key) ]);
          Condition.broadcast t.cond;
          Ok { job_id = id; attached = false }
      end
    in
    Mutex.unlock t.mutex;
    result

let find t id =
  match Hashtbl.find_opt t.jobs id with
  | Some r -> Ok r
  | None -> E.failf ~context:ctx Bounds "unknown job id %S" id

let job_state t id =
  Mutex.lock t.mutex;
  let result = Result.map (fun r -> r.state) (find t id) in
  Mutex.unlock t.mutex;
  result

let cancel t id =
  Mutex.lock t.mutex;
  let result =
    Result.map
      (fun r ->
        if r.state = P.Queued then begin
          r.state <- P.Cancelled;
          Metric.Counter.incr c_cancelled;
          push_event_locked t r "job-state"
            (Json.Obj [ ("state", Json.Str "cancelled") ]);
          true
        end
        else false)
      (find t id)
  in
  Mutex.unlock t.mutex;
  result

let fetch_csv t id =
  Mutex.lock t.mutex;
  let result =
    Result.bind (find t id) (fun r ->
        match r.csv with
        | Some csv -> Ok csv
        | None -> (
          match r.job with
          | P.Sweep _ ->
            E.failf ~context:ctx Bounds "job %s is %s; csv is available once done" id
              (P.job_state_string r.state)
          | _ -> E.failf ~context:ctx Bounds "job %s is not a sweep; nothing to fetch" id))
  in
  Mutex.unlock t.mutex;
  result

let job_json r =
  Json.Obj
    ([
       ("id", Json.Str r.id);
       ("kind", Json.Str (P.job_kind_string r.job));
       ("key", Json.Str r.key);
       ("state", Json.Str (P.job_state_string r.state));
       ("events", Json.num_int r.n_events);
       ("csv_available", Json.Bool (r.csv <> None));
     ]
    @ (match r.state with P.Failed msg -> [ ("error", Json.Str msg) ] | _ -> [])
    @
    match r.crash with
    | Some { Scheduler.msg; backtrace } ->
      [
        ( "crash",
          Json.Obj [ ("msg", Json.Str msg); ("backtrace", Json.Str backtrace) ] );
      ]
    | None -> [])

let status_json t which =
  Mutex.lock t.mutex;
  let result =
    match which with
    | Some id -> Result.map job_json (find t id)
    | None ->
      let jobs =
        Hashtbl.fold (fun _ r acc -> r :: acc) t.jobs []
        |> List.sort (fun a b -> compare a.id b.id)
        |> List.map job_json
      in
      Ok
        (Json.Obj
           [
             ("uptime_s", Json.Num (Unix.gettimeofday () -. t.started_at));
             ("jobs", Json.List jobs);
             ("queued", Json.num_int (Queue.length t.queue));
             ( "running",
               Json.List (List.map (fun id -> Json.Str id) (List.rev t.running)) );
             ("hosts_cached", Json.num_int (Worker.Cache.size t.cache));
             ("draining", Json.Bool t.draining);
             ( "pool",
               match t.pool with
               | Some pool -> Pool.status_json pool
               | None -> Json.Null );
           ])
  in
  Mutex.unlock t.mutex;
  result

let events_after t ~job ~since =
  Mutex.lock t.mutex;
  let result =
    Result.map
      (fun r ->
        let fresh () =
          List.filter (fun (e : P.event) -> e.seq > since) (List.rev r.events)
        in
        let rec wait () =
          let es = fresh () in
          if es <> [] || P.terminal r.state || t.stopped then (es, P.terminal r.state)
          else begin
            Condition.wait t.cond t.mutex;
            wait ()
          end
        in
        wait ())
      (find t job)
  in
  Mutex.unlock t.mutex;
  result

let drain t =
  Mutex.lock t.mutex;
  t.draining <- true;
  Condition.broadcast t.cond;
  let executors = t.executors in
  t.executors <- [];
  Mutex.unlock t.mutex;
  List.iter Thread.join executors;
  Option.iter Pool.shutdown t.pool

let pool_status t = Option.map Pool.status_json t.pool

let hosts_cached t = Worker.Cache.size t.cache

let uptime t = Unix.gettimeofday () -. t.started_at
