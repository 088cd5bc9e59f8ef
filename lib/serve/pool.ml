module P = Protocol
module W = Protocol.Worker_wire
module Json = Gncg_runs.Json
module Job = Gncg_runs.Job
module Scheduler = Gncg_runs.Scheduler
module Metric = Gncg_obs.Metric

(* serve.pool.* probes: supervision pressure.  [spawns] counts every
   process launch (initial fleet included); [restarts] only the
   re-launches; [requeues] in-flight jobs re-dispatched after their
   worker died; [heartbeats_missed] liveness-deadline violations;
   [breaker_trips] restart storms; [degraded_jobs] work the pool handed
   back for in-process execution; [garbage_lines] unparseable worker
   output dropped during resync. *)
let c_spawns = Metric.Counter.make "serve.pool.spawns"
let c_heartbeats_missed = Metric.Counter.make "serve.pool.heartbeats_missed"
let c_restarts = Metric.Counter.make "serve.pool.restarts"
let c_requeues = Metric.Counter.make "serve.pool.requeues"
let c_breaker_trips = Metric.Counter.make "serve.pool.breaker_trips"
let c_degraded = Metric.Counter.make "serve.pool.degraded_jobs"
let c_garbage = Metric.Counter.make "serve.pool.garbage_lines"
let h_dispatch_ns = Metric.Histogram.make "serve.pool.dispatch_ns"

type config = {
  workers : int;
  liveness_deadline : float;
  max_requeues : int;
  backoff_base : float;
  backoff_max : float;
  breaker_window : float;
  breaker_threshold : int;
  monitor_tick : float;
}

let default_config =
  {
    workers = 1;
    liveness_deadline = 3.0;
    max_requeues = 2;
    backoff_base = 0.05;
    backoff_max = 2.0;
    breaker_window = 10.0;
    breaker_threshold = 5;
    monitor_tick = 0.02;
  }

type proc = { pid : int; to_worker : out_channel; from_worker : in_channel }

type spawn = unit -> proc

(* Why a worker died, decided before the SIGKILL: a budget kill is the
   job's fault (immediate respawn, no breaker pressure); everything else
   is the worker's (backoff + breaker accounting). *)
type kill_reason = Spontaneous | Budget_kill | Liveness_kill

type resolution =
  | Delivered of W.outcome
  | Timed_out
  | Died of string

type inflight = {
  rid : int;
  deadline : float option;
  mutable resolution : resolution option;
}

type wrec = {
  wid : int;
  mutable proc : proc option;
  mutable up : bool;
  mutable last_beat : float;
  mutable inflight : inflight option;
  mutable restarts : int;
  mutable jobs_done : int;
  mutable consecutive_faults : int;
  mutable kill_reason : kill_reason;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  config : config;
  spawn : spawn;
  fleet : wrec array;
  attempts : (string, int) Hashtbl.t;
      (* per-content-key dispatch count, carried on the wire so the
         worker-side chaos oracle sees attempts across restarts *)
  mutable fault_times : float list;
  mutable breaker_open : bool;
  mutable stopping : bool;
  mutable next_rid : int;
  mutable threads : Thread.t list;
}

let now () = Unix.gettimeofday ()

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* --- spawning ------------------------------------------------------------ *)

(* Spawns are serialized process-wide: two lifecycle threads spawning
   concurrently would each inherit the other's freshly-made pipe ends,
   and a leaked write end keeps a dead worker's pipe from ever reaching
   EOF — the supervisor would never observe the death.  Holding this
   mutex from pipe creation to the parent-side closes guarantees no
   child inherits another spawn's in-flight descriptors. *)
let spawn_mutex = Mutex.create ()

let serialized f =
  Mutex.lock spawn_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock spawn_mutex) f

let proc_of_pipes ~pid ~to_w ~from_r =
  {
    pid;
    to_worker = Unix.out_channel_of_descr to_w;
    from_worker = Unix.in_channel_of_descr from_r;
  }

let spawn_exec argv () =
  serialized (fun () ->
      let to_r, to_w = Unix.pipe () in
      let from_r, from_w = Unix.pipe () in
      Unix.set_close_on_exec to_w;
      Unix.set_close_on_exec from_r;
      let pid = Unix.create_process argv.(0) argv to_r from_w Unix.stderr in
      Unix.close to_r;
      Unix.close from_w;
      proc_of_pipes ~pid ~to_w ~from_r)

(* --- the per-worker lifecycle thread ------------------------------------- *)

(* Owns one fleet slot end to end: spawn, read until EOF, reap, decide
   fault vs deliberate kill, back off, respawn — or stop on shutdown,
   breaker trip, or a storm it trips itself. *)

let read_loop t w proc =
  let rec go () =
    match input_line proc.from_worker with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
      (match W.msg_of_line line with
      | Error _ ->
        (* Resync: a worker that wrote garbage on the protocol channel
           is still supervised — drop the line, count it, keep reading. *)
        Metric.Counter.incr c_garbage
      | Ok W.Heartbeat | Ok (W.Hello _) ->
        Mutex.lock t.mutex;
        w.last_beat <- now ();
        Mutex.unlock t.mutex
      | Ok (W.Result { rid; outcome }) ->
        Mutex.lock t.mutex;
        (match w.inflight with
        | Some infl when infl.rid = rid && infl.resolution = None ->
          infl.resolution <- Some (Delivered outcome);
          w.jobs_done <- w.jobs_done + 1;
          w.consecutive_faults <- 0;
          Condition.broadcast t.cond
        | _ -> ());
        Mutex.unlock t.mutex);
      go ()
  in
  go ()

let reap proc =
  match Unix.waitpid [] proc.pid with
  | _, status -> status_string status
  | exception Unix.Unix_error _ -> "already reaped"

let close_proc proc =
  (try close_out proc.to_worker with _ -> ());
  (try close_in proc.from_worker with _ -> ())

let trip_breaker_locked t =
  t.breaker_open <- true;
  Metric.Counter.incr c_breaker_trips;
  (* Stop the rest of the fleet: their lifecycle threads observe the
     open breaker on death and stay down; their in-flight jobs resolve
     as [Died] and degrade instead of requeueing. *)
  Array.iter
    (fun w' ->
      if w'.up then
        match w'.proc with
        | Some p -> ( try Unix.kill p.pid Sys.sigkill with _ -> ())
        | None -> ())
    t.fleet;
  Condition.broadcast t.cond

let rec lifecycle t w =
  match t.spawn () with
  | exception e -> fault t w (Printf.sprintf "spawn failed: %s" (Printexc.to_string e))
  | proc ->
    Mutex.lock t.mutex;
    if t.stopping || t.breaker_open then begin
      Mutex.unlock t.mutex;
      (try Unix.kill proc.pid Sys.sigkill with _ -> ());
      ignore (reap proc);
      close_proc proc
    end
    else begin
      w.proc <- Some proc;
      w.up <- true;
      w.last_beat <- now ();
      w.kill_reason <- Spontaneous;
      Metric.Counter.incr c_spawns;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      read_loop t w proc;
      (* The pipe is done: the worker exited, crashed, or we killed it. *)
      let status = reap proc in
      Mutex.lock t.mutex;
      w.up <- false;
      w.proc <- None;
      let reason = w.kill_reason in
      w.kill_reason <- Spontaneous;
      (match w.inflight with
      | Some infl when infl.resolution = None ->
        infl.resolution <-
          Some (Died (Printf.sprintf "worker %d died mid-job (%s)" proc.pid status));
        Condition.broadcast t.cond
      | _ -> ());
      let stop = t.stopping || t.breaker_open in
      Mutex.unlock t.mutex;
      close_proc proc;
      if not stop then begin
        Metric.Counter.incr c_restarts;
        w.restarts <- w.restarts + 1;
        match reason with
        | Budget_kill ->
          (* The job blew its budget, not the worker: respawn at once. *)
          lifecycle t w
        | Liveness_kill | Spontaneous ->
          fault t w (Printf.sprintf "worker %d %s" proc.pid status)
      end
    end

and fault t w _detail =
  Mutex.lock t.mutex;
  w.consecutive_faults <- w.consecutive_faults + 1;
  let tnow = now () in
  t.fault_times <-
    tnow :: List.filter (fun ft -> tnow -. ft <= t.config.breaker_window) t.fault_times;
  let storm = List.length t.fault_times >= t.config.breaker_threshold in
  if storm && not t.breaker_open then trip_breaker_locked t;
  let stop = t.stopping || t.breaker_open in
  Mutex.unlock t.mutex;
  if not stop then begin
    let backoff =
      Float.min t.config.backoff_max
        (t.config.backoff_base *. Float.ldexp 1.0 (w.consecutive_faults - 1))
    in
    Thread.delay backoff;
    let stop =
      Mutex.lock t.mutex;
      let s = t.stopping || t.breaker_open in
      Mutex.unlock t.mutex;
      s
    in
    if not stop then lifecycle t w
  end

(* --- the monitor thread -------------------------------------------------- *)

(* One ticker enforces both deadlines: per-job wall-clock budgets
   (SIGKILL, resolved [Timed_out] so the dispatcher raises
   {!Scheduler.Over_budget}) and per-worker liveness (no heartbeat for
   [liveness_deadline] seconds: SIGKILL, left unresolved so the death
   path requeues the in-flight job). *)
let monitor t =
  let stop () =
    Mutex.lock t.mutex;
    let s = t.stopping in
    Mutex.unlock t.mutex;
    s
  in
  while not (stop ()) do
    Thread.delay t.config.monitor_tick;
    Mutex.lock t.mutex;
    let tnow = now () in
    Array.iter
      (fun w ->
        if w.up then
          match w.proc with
          | None -> ()
          | Some proc ->
            let budget_blown =
              match w.inflight with
              | Some { resolution = None; deadline = Some d; _ } -> tnow > d
              | _ -> false
            in
            if budget_blown then begin
              (match w.inflight with
              | Some infl -> infl.resolution <- Some Timed_out
              | None -> ());
              w.kill_reason <- Budget_kill;
              w.up <- false;
              (try Unix.kill proc.pid Sys.sigkill with _ -> ());
              Condition.broadcast t.cond
            end
            else if tnow -. w.last_beat > t.config.liveness_deadline then begin
              Metric.Counter.incr c_heartbeats_missed;
              w.kill_reason <- Liveness_kill;
              w.up <- false;
              (* Leave the in-flight job unresolved: the death path marks
                 it [Died] and the dispatcher requeues it. *)
              (try Unix.kill proc.pid Sys.sigkill with _ -> ())
            end)
      t.fleet;
    Mutex.unlock t.mutex
  done

(* --- construction -------------------------------------------------------- *)

let create ?(config = default_config) ~spawn () =
  if config.workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  (* Worker pipes break when workers die; that is data, not a signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      config;
      spawn;
      fleet =
        Array.init config.workers (fun wid ->
            {
              wid;
              proc = None;
              up = false;
              last_beat = 0.0;
              inflight = None;
              restarts = 0;
              jobs_done = 0;
              consecutive_faults = 0;
              kill_reason = Spontaneous;
            });
      attempts = Hashtbl.create 64;
      fault_times = [];
      breaker_open = false;
      stopping = false;
      next_rid = 1;
      threads = [];
    }
  in
  let lifecycles =
    Array.to_list (Array.map (fun w -> Thread.create (fun () -> lifecycle t w) ()) t.fleet)
  in
  t.threads <- Thread.create monitor t :: lifecycles;
  t

(* --- dispatch ------------------------------------------------------------ *)

let send_run proc ~rid ~attempt payload =
  output_string proc.to_worker
    (Json.to_string (W.req_to_json (W.Run { rid; attempt; payload })));
  output_char proc.to_worker '\n';
  flush proc.to_worker

let rec dispatch_from t ?budget payload ~requeues ~t_enter =
  Mutex.lock t.mutex;
  let rec pick () =
    if t.breaker_open || t.stopping then None
    else
      match Array.find_opt (fun w -> w.up && w.inflight = None) t.fleet with
      | Some w -> Some w
      | None ->
        Condition.wait t.cond t.mutex;
        pick ()
  in
  match pick () with
  | None ->
    Mutex.unlock t.mutex;
    None
  | Some w ->
    let rid = t.next_rid in
    t.next_rid <- t.next_rid + 1;
    let key = W.payload_key payload in
    let attempt = 1 + Option.value ~default:0 (Hashtbl.find_opt t.attempts key) in
    Hashtbl.replace t.attempts key attempt;
    let infl =
      { rid; deadline = Option.map (fun b -> now () +. b) budget; resolution = None }
    in
    w.inflight <- Some infl;
    let proc = w.proc in
    Mutex.unlock t.mutex;
    Metric.Histogram.observe h_dispatch_ns ((now () -. t_enter) *. 1e9);
    (match proc with
    | Some proc -> (
      try send_run proc ~rid ~attempt payload
      with _ ->
        (* Died between pick and write: resolve it ourselves — the
           lifecycle thread may already have cleared [w.proc]. *)
        Mutex.lock t.mutex;
        if infl.resolution = None then
          infl.resolution <- Some (Died "write to worker failed");
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex)
    | None ->
      Mutex.lock t.mutex;
      if infl.resolution = None then
        infl.resolution <- Some (Died "worker gone before dispatch");
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex);
    Mutex.lock t.mutex;
    while infl.resolution = None do
      Condition.wait t.cond t.mutex
    done;
    let res = Option.get infl.resolution in
    (match w.inflight with
    | Some i when i == infl ->
      w.inflight <- None;
      Condition.broadcast t.cond
    | _ -> ());
    let degraded = t.breaker_open || t.stopping in
    Mutex.unlock t.mutex;
    (match res with
    | Delivered (W.Run_result r) -> Some (`Run r)
    | Delivered (W.Query_result d) -> Some (`Data d)
    | Delivered (W.Job_error { msg; backtrace }) ->
      (* The job crashed inside the worker; re-raise with the
         worker-side record so retries and journals keep its frames. *)
      raise (Scheduler.Crash_report { msg; backtrace })
    | Timed_out -> raise Scheduler.Over_budget
    | Died msg ->
      if degraded then None
      else if requeues < t.config.max_requeues then begin
        Metric.Counter.incr c_requeues;
        dispatch_from t ?budget payload ~requeues:(requeues + 1) ~t_enter
      end
      else raise (Scheduler.Crash_report { msg; backtrace = "" }))

let dispatch t ?budget payload =
  let r = dispatch_from t ?budget payload ~requeues:0 ~t_enter:(now ()) in
  if r = None then Metric.Counter.incr c_degraded;
  r

(* --- introspection and shutdown ------------------------------------------ *)

let size t = Array.length t.fleet

let status_json t =
  Mutex.lock t.mutex;
  let tnow = now () in
  let workers =
    Array.to_list
      (Array.map
         (fun w ->
           Json.Obj
             [
               ("worker", Json.num_int w.wid);
               ( "pid",
                 match w.proc with
                 | Some p when w.up -> Json.num_int p.pid
                 | _ -> Json.Null );
               ("alive", Json.Bool w.up);
               ("busy", Json.Bool (w.inflight <> None));
               ( "last_heartbeat_s",
                 if w.up then Json.Num (tnow -. w.last_beat) else Json.Null );
               ("restarts", Json.num_int w.restarts);
               ("jobs_done", Json.num_int w.jobs_done);
             ])
         t.fleet)
  in
  let doc =
    Json.Obj
      [
        ("workers", Json.List workers);
        ("restarts", Json.num_int (Array.fold_left (fun a w -> a + w.restarts) 0 t.fleet));
        ("breaker_open", Json.Bool t.breaker_open);
      ]
  in
  Mutex.unlock t.mutex;
  doc

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    t.stopping <- true;
    Condition.broadcast t.cond;
    let procs =
      Array.to_list
        (Array.map (fun w -> if w.up then w.proc else None) t.fleet)
      |> List.filter_map Fun.id
    in
    Mutex.unlock t.mutex;
    (* Workers are stateless executors — nothing to lose: kill rather
       than wait out a wedged one.  Lifecycle threads observe EOF and
       exit because [stopping] is set. *)
    List.iter (fun p -> try Unix.kill p.pid Sys.sigkill with _ -> ()) procs;
    List.iter Thread.join t.threads;
    t.threads <- []
  end
