(* The serve workload: a child `gncg serve --workers 1` daemon under a
   closed loop of one connection (it sends its next request only when
   the previous one is terminal; there is no schedule).  One connection
   and one worker keep a single request computing at a time, so on a
   small machine the latencies measure the daemon, not the OS scheduler.
   Every iteration sends four requests whose path through the daemon is
   fixed by construction:

     ping          the connection thread answers without the executor;
     eq-check      GE with stabilize on a fresh seed: pool dispatch and
                   compute;
     best-response exact BR on the same instance;
     eq-check      of the seed of the connection's previous iteration:
                   a dedup attach to a finished job, no compute.

   A request is timed from send to its terminal event; the end-to-end
   operation is one whole iteration, the unit a client of this mix
   waits for (a per-request median would sit on the boundary between
   two of the four equally frequent classes).  Every reply must equal
   the same query evaluated in process. *)

module H = Harness
module P = Gncg_serve.Protocol
module Client = Gncg_serve.Client
module Json = Gncg_runs.Json

type spec = {
  model : Gncg_workload.Instances.model;
  n : int;
  quick_n : int;
  per_10s : int;  (** iterations in a 10 s run *)
}

let warmup_iterations = 20

(* The CLI of this build: the benchmark sits in <build>/benchmark/, the
   CLI in <build>/bin/. *)
let cli () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "gncg_cli.exe")

let fail fmt = Printf.ksprintf failwith fmt

let ok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Gncg_util.Gncg_error.to_string e)

(* Spawn until the first successful ping: the set-up a user pays.
   Returns the daemon's pid, its socket and the connection that pinged. *)
let spawn cfg idx =
  let file suffix = Filename.concat cfg.H.run_dir (Printf.sprintf "d%d%s" idx suffix) in
  let socket = file ".sock" in
  let log = Unix.openfile (file ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = H.now () in
  let exe = cli () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--workers"; "1"; "--socket"; socket; "--state-dir"; file "-state" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let rec first_ping () =
    if H.now () -. t0 > 30.0 then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      fail "daemon %d never answered a ping" idx
    end;
    match Client.connect_unix ~path:socket with
    | Error _ ->
      Unix.sleepf 0.002;
      first_ping ()
    | Ok c -> (
      match Client.ping c with
      | Ok _ -> c
      | Error _ ->
        Client.close c;
        Unix.sleepf 0.002;
        first_ping ())
  in
  (pid, socket, first_ping ())

(* Graceful drain, then wait for the daemon (which reaps its workers);
   a daemon that outlives the drain by 20 s is killed. *)
let stop pid c =
  ignore (Client.shutdown c);
  Client.close c;
  let deadline = H.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when H.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* A query by its content: the eq-check of a seed, or the best response
   of an agent on a seed's instance. *)
type query = Eq of int | Br of int * int

let job spec n = function
  | Eq seed ->
    P.Eq_check
      { model = spec.model; n; alpha = 2.0; seed; check = Gncg.Equilibrium.GE; stabilize = true }
  | Br (seed, agent) -> P.Best_response { model = spec.model; n; alpha = 2.0; seed; agent }

type sample = { op : string; lat : float; good : bool; attached : bool }

(* One query: submit, watch to the terminal event, keep the reply. *)
let submit c job =
  let reply = ref None in
  match Client.submit c job with
  | Error _ -> (None, false, false)
  | Ok (id, attached) -> (
    match
      Client.watch c
        ~on_event:(fun e ->
          if e.P.name = "verdict" || e.P.name = "best-response" then
            reply := Some (Json.to_string e.P.data))
        id
    with
    | Ok fin ->
      let state = Result.bind (Json.member "state" fin) Json.get_string in
      (!reply, state = Ok "done" && !reply <> None, attached)
    | Error _ -> (None, false, attached))

(* One closed loop on a fresh connection; returns its request samples,
   the calibrated time of each iteration in order and every reply with
   its query. *)
let connection spec n socket seeds =
  let c = ok "connect" (Client.connect_unix ~path:socket) in
  let samples = ref [] and iterations = ref [] and replies = ref [] in
  let timed op f =
    let (reply, good, attached), lat = H.time f in
    samples := { op; lat; good; attached } :: !samples;
    reply
  in
  let query op q = replies := (q, timed op (fun () -> submit c (job spec n q))) :: !replies in
  let prev = ref None in
  List.iteri
    (fun k seed ->
      let (), lat =
        H.calibrated (fun () ->
            ignore
              (timed "ping" (fun () ->
                   match Client.ping c with
                   | Ok _ -> (None, true, false)
                   | Error _ -> (None, false, false)));
            query "eq-check" (Eq seed);
            query "best-response" (Br (seed, k mod n));
            query "attach" (Eq (Option.value !prev ~default:seed)))
      in
      iterations := lat :: !iterations;
      prev := Some seed)
    seeds;
  Client.close c;
  (!samples, List.rev !iterations, !replies)

let member_int key j = Result.bind (Json.member key j) Json.get_int

let run spec (cfg : H.cfg) : H.result =
  let n = if cfg.quick then spec.quick_n else spec.n in
  let iterations = H.scaled cfg ~per_10s:spec.per_10s ~quick:12 in
  let warm_iterations = if cfg.quick then 2 else warmup_iterations in
  let seeds offset count = List.init count (fun k -> H.instance_seed cfg (offset + k)) in
  (* Set-up six times: the first daemon warms the page cache and is not
     counted, four more are drained right after their first ping, the
     sixth serves the load. *)
  let setups =
    List.init 5 (fun i ->
        let (pid, _, c), s = H.calibrated (fun () -> spawn cfg i) in
        stop pid c;
        s)
  in
  let (pid, socket, control), s6 = H.calibrated (fun () -> spawn cfg 5) in
  let setups = List.tl setups @ [ s6 ] in
  let measured, rss, restarts =
    Fun.protect
      ~finally:(fun () -> stop pid control)
      (fun () ->
        ignore (connection spec n socket (seeds iterations warm_iterations));
        let measured = connection spec n socket (seeds 0 iterations) in
        (* Peak memory of the daemon plus its workers, read before the
           drain kills the workers. *)
        let pool =
          match Client.status control () with
          | Ok st -> Json.member "pool" st
          | Error e -> Error (Gncg_util.Gncg_error.to_string e)
        in
        let workers =
          match Result.bind pool (fun p -> Result.bind (Json.member "workers" p) Json.get_list) with
          | Ok ws -> List.filter_map (fun w -> Result.to_option (member_int "pid" w)) ws
          | Error _ -> []
        in
        let rss = H.sum (List.map (fun p -> H.vmhwm_mb (Some p)) (pid :: workers)) in
        let restarts =
          match Result.bind pool (member_int "restarts") with
          | Ok r -> float_of_int r
          | Error _ -> Float.nan
        in
        (measured, rss, restarts))
  in
  let samples, iteration_lat, replies = measured in
  (* Every distinct query evaluated in process, on two domains. *)
  let queries = Array.of_list (List.sort_uniq compare (List.map fst replies)) in
  let expected =
    Gncg_util.Exec.init ~exec:(Gncg_util.Exec.par ~domains:2 ()) (Array.length queries)
      (fun i ->
        let (_, data), t =
          H.time (fun () ->
              Gncg_serve.Worker.eval_query (Gncg_serve.Worker.Cache.create ())
                (job spec n queries.(i)))
        in
        (queries.(i), Json.to_string data, t))
  in
  let expect = Hashtbl.create (Array.length expected) in
  Array.iter (fun (q, data, _) -> Hashtbl.replace expect q data) expected;
  let replica_ok = List.for_all (fun (q, reply) -> reply = Hashtbl.find_opt expect q) replies in
  let compute =
    H.median
      (List.filter_map
         (function Eq _, _, t -> Some t | Br _, _, _ -> None)
         (Array.to_list expected))
  in
  let lat op = List.filter_map (fun s -> if s.op = op then Some s.lat else None) samples in
  let total = H.sum (List.map (fun s -> s.lat) samples) in
  let failed = List.length (List.filter (fun s -> not s.good) samples) in
  let attached = List.length (List.filter (fun s -> s.attached) samples) in
  let e2e = H.op_metrics ~setups ~latencies:iteration_lat ~rss_mb:rss in
  let eq = lat "eq-check" in
  let eq_tail = H.quantile eq (H.tail_q (List.length eq)) in
  let layers =
    [
      ("trace.wall_s", total);
      ("trace.overhead_frac", 0.0);
      ("trace.other_frac", 0.0);
      ("serve.ping_frac", H.sum (lat "ping") /. total);
      ("serve.eq_check_frac", H.sum eq /. total);
      ("serve.br_frac", H.sum (lat "best-response") /. total);
      ("serve.attach_frac", H.sum (lat "attach") /. total);
      ("serve.eq_check_tail_ratio", eq_tail /. H.median eq);
      ("serve.attached_frac", float_of_int attached /. float_of_int (List.length samples));
      ("serve.compute_frac", compute /. H.median eq);
      ("serve.pool_restarts", restarts);
      ("trace.replica_match", if replica_ok then 1.0 else 0.0);
    ]
  in
  let ms l = H.median l *. 1e3 in
  let notes =
    [
      Printf.sprintf "1 connection, %d iterations = %d requests, %.2f s calibrated (%.0f req/s)"
        iterations (List.length samples) (H.sum iteration_lat)
        (float_of_int (List.length samples) /. H.sum iteration_lat);
      Printf.sprintf
        "p50 ms: ping %.3f, eq-check %.3f (%s %.3f), best-response %.3f, attach %.3f; \
         eq-check compute in process %.3f"
        (ms (lat "ping")) (ms eq) (H.tail_name (List.length eq)) (eq_tail *. 1e3)
        (ms (lat "best-response")) (ms (lat "attach")) (compute *. 1e3);
    ]
  in
  {
    H.attempted = List.length samples;
    failed;
    checks =
      [
        ("every reply equals the in-process evaluation of its query", replica_ok);
        ( "exactly the repeated eq-checks attach",
          List.for_all (fun s -> s.attached = (s.op = "attach")) samples );
        ("no pool worker restarted", restarts = 0.0);
      ];
    digest =
      H.digest (String.concat "\n" (Array.to_list (Array.map (fun (_, d, _) -> d) expected)));
    metrics = e2e @ layers;
    notes;
  }
