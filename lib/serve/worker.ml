module P = Protocol
module W = Protocol.Worker_wire
module Json = Gncg_runs.Json
module Job = Gncg_runs.Job
module Chaos = Gncg_runs.Chaos
module Metric = Gncg_obs.Metric

let c_cache_hits = Metric.Counter.make "serve.host_cache_hits"
let c_cache_misses = Metric.Counter.make "serve.host_cache_misses"

(* --- the host cache ----------------------------------------------------- *)

(* Host-metric construction is the expensive part of a query (O(n²)
   closure for graph models, O(n² d) for point sets); each process —
   the daemon for in-process execution, every pool worker for
   dispatched queries — pays it once per instance.  The cached profile
   is the seeded random start, so cached and uncached queries answer
   identically. *)
module Cache = struct
  type t = {
    mutex : Mutex.t;
    hosts : (string, Gncg.Host.t * Gncg.Strategy.t) Hashtbl.t;
  }

  let create () = { mutex = Mutex.create (); hosts = Hashtbl.create 64 }

  let size t =
    Mutex.lock t.mutex;
    let n = Hashtbl.length t.hosts in
    Mutex.unlock t.mutex;
    n

  let instance_key ~model ~n ~alpha ~seed =
    P.content_hash
      (Printf.sprintf "%s;%d;%.17g;%d" (Job.model_to_string model) n alpha seed)

  let host_and_profile t ~model ~n ~alpha ~seed =
    let key = instance_key ~model ~n ~alpha ~seed in
    Mutex.lock t.mutex;
    let cached = Hashtbl.find_opt t.hosts key in
    Mutex.unlock t.mutex;
    match cached with
    | Some pair ->
      Metric.Counter.incr c_cache_hits;
      pair
    | None ->
      Metric.Counter.incr c_cache_misses;
      let rng = Gncg_util.Prng.create seed in
      let host = Gncg_workload.Instances.random_host rng model ~n ~alpha in
      let profile = Gncg_workload.Instances.random_profile rng host in
      Mutex.lock t.mutex;
      Hashtbl.replace t.hosts key (host, profile);
      Mutex.unlock t.mutex;
      (host, profile)
end

(* --- query evaluation ---------------------------------------------------- *)

let outcome_fields = function
  | Gncg.Dynamics.Converged { profile; rounds; _ } ->
    (profile, [ ("converged", Json.Bool true); ("rounds", Json.num_int rounds) ])
  | Gncg.Dynamics.Out_of_steps { profile; _ } ->
    (profile, [ ("converged", Json.Bool false) ])
  | Gncg.Dynamics.Cycle { profiles; _ } ->
    (List.hd profiles, [ ("converged", Json.Bool false); ("cycle", Json.Bool true) ])

let eval_query ?(exec = Gncg_util.Exec.Seq) cache job =
  match job with
  | P.Eq_check { model; n; alpha; seed; check; stabilize } ->
    let host, profile = Cache.host_and_profile cache ~model ~n ~alpha ~seed in
    let profile, dyn_fields =
      if stabilize then
        outcome_fields
          (Gncg.Dynamics.run
             (Gncg.Dynamics.Config.make ~max_steps:5000 ~evaluator:`Incremental
                Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
             host profile)
      else (profile, [])
    in
    let holds = Gncg.Equilibrium.is_equilibrium ~exec check host profile in
    ( "verdict",
      Json.Obj
        ([
           ("check", Json.Str (P.check_to_string check));
           ("holds", Json.Bool holds);
           ("n", Json.num_int n);
           ("alpha", Json.Num alpha);
           ("seed", Json.num_int seed);
           ("stabilized", Json.Bool stabilize);
           ("social_cost", Json.Num (Gncg.Cost.social_cost host profile));
         ]
        @ dyn_fields) )
  | P.Best_response { model; n; alpha; seed; agent } ->
    let host, profile = Cache.host_and_profile cache ~model ~n ~alpha ~seed in
    let current = Gncg.Cost.agent_cost host profile agent in
    let (_, exact), (_, local) = Gncg.Best_response.exact_and_local host profile agent in
    ( "best-response",
      Json.Obj
        [
          ("agent", Json.num_int agent);
          ("current", Json.Num current);
          ("exact", Json.Num exact);
          ("local", Json.Num local);
          ("improvable", Json.Bool (exact < current -. 1e-9));
        ] )
  | P.Sweep _ ->
    invalid_arg "Worker.eval_query: sweep jobs are dispatched spec by spec"

(* --- the worker loop ----------------------------------------------------- *)

(* Seconds between heartbeats; the pool's liveness deadline is a
   multiple of it. *)
let heartbeat = 0.25

let main ?chaos ic oc =
  Printexc.record_backtrace true;
  (* A supervisor that died mid-read must not take the worker down with
     SIGPIPE; the write error surfaces as an exception instead. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let omutex = Mutex.create () in
  let send msg =
    Mutex.lock omutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock omutex)
      (fun () ->
        output_string oc (Json.to_string (W.msg_to_json msg));
        output_char oc '\n';
        flush oc)
  in
  let stop = Atomic.make false in
  send (W.Hello { pid = Unix.getpid () });
  let beat =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (try send W.Heartbeat with _ -> Atomic.set stop true);
          Thread.delay heartbeat
        done)
      ()
  in
  let cache = Cache.create () in
  let fault key attempt =
    match chaos with
    | None -> ()
    | Some plan -> (
      match Chaos.decide_process plan ~key ~attempt with
      | None -> ()
      | Some Chaos.Kill ->
        (* Indistinguishable from an external kill -9: no goodbye, no
           flush; the supervisor sees pipe EOF + waitpid. *)
        Unix.kill (Unix.getpid ()) Sys.sigkill
      | Some (Chaos.Hang s) -> Unix.sleepf s
      | Some Chaos.Garbage ->
        (* Raw bytes outside the codec — the shape a corrupted worker or
           a foreign writer on the protocol channel produces. *)
        Mutex.lock omutex;
        output_string oc "}{ not protocol \xfe\xff garbage\n";
        flush oc;
        Mutex.unlock omutex)
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line -> (
      match W.req_of_line line with
      | Error e ->
        (* Unreadable supervisor lines cannot arise from our supervisor;
           tolerate them anyway — a worker must never die of input. *)
        Printf.eprintf "gncg worker: dropping unreadable line: %s\n%!"
          (Gncg_util.Gncg_error.to_string e);
        loop ()
      | Ok W.Quit -> ()
      | Ok (W.Run { rid; attempt; payload }) ->
        fault (W.payload_key payload) attempt;
        let outcome =
          try
            match payload with
            | W.Spec spec -> W.Run_result (Job.execute spec)
            | W.Query job -> W.Query_result (snd (eval_query cache job))
          with e ->
            W.Job_error
              { msg = Printexc.to_string e; backtrace = Printexc.get_backtrace () }
        in
        (match send (W.Result { rid; outcome }) with
        | () -> loop ()
        | exception _ -> ()))
  in
  loop ();
  Atomic.set stop true;
  Thread.join beat
