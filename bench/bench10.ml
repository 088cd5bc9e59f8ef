(* BENCH_10.json: serve throughput with the supervised worker pool.

   The bench7 harness — 8 concurrent clients over a Unix-domain socket,
   mixed ping / eq-check / best-response traffic — replayed against
   three daemon shapes:

     workers=0   the in-process executor (the bench7 configuration:
                 crash isolation off, the baseline this artifact
                 descends from)
     workers=1   one supervised worker process: what the supervision
                 machinery (heartbeats, wire round-trip, monitor)
                 costs when it buys no parallelism
     workers=4   four worker processes answering queries concurrently —
                 the configuration that should beat the in-process
                 executor's tail latency, because a slow query no
                 longer convoys the whole queue behind one executor

   Every row measures the same request mix end to end (queue wait
   included), so the rows are directly comparable: the only variable is
   the execution substrate behind the session.  The headline figure is
   the workers=4 fleet p99 against the committed BENCH_7 p99 — the
   pool must not tax the tail it exists to protect.  Cross-artifact
   wall-clock is only meaningful on comparable hardware, so the bar
   binds only on full artifacts generated with >= 4 cores (the "cores"
   field records the hardware).

   Schema (validated by bench/smoke.exe --validate-json):
     { "schema": "gncg-bench-10",
       "full": <bool>, "cores": <int>, "clients": 8,
       "bench7_p99_ns": <the committed BENCH_7 baseline>,
       "p99_workers4_vs_bench7": <row p99 / baseline>,
       "rows": [ { "workers": <int>, "requests": <int>,
                   "elapsed_s": ..., "requests_per_s": ...,
                   "latency_ns": {"p50","p90","p99","max"},
                   "results": [ {"op","count","ns_per_op",
                                 "p50_ns","p99_ns"}, ... ],
                   "pool": {"spawns_seen": <bool>, "restarts": <int>,
                            "breaker_open": <bool>} | null }, ... ],
       "counters": { "<metric>": <int>, ... } }

   Usage:
     dune exec bench/bench10.exe -- --out BENCH_10.json        # full
     dune exec bench/bench10.exe -- --quick --out /tmp/b.json  # CI *)

module P = Gncg_serve.Protocol
module Session = Gncg_serve.Session
module Server = Gncg_serve.Server
module Client = Gncg_serve.Client
module Pool = Gncg_serve.Pool
module Json = Gncg_runs.Json

let schema_name = "gncg-bench-10"

(* The fleet-level p99 of the committed BENCH_7.json (8 clients,
   in-process executor): the tail-latency baseline workers=4 is held
   against. *)
let bench7_p99_ns = 10420083.999633789

let clients = 8
let worker_levels = [ 0; 1; 4 ]
let model = Gncg_workload.Instances.Euclid { norm = L2; d = 2; box = 100.0 }

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench10: " ^ m); exit 1) fmt

type cfg = { out : string option; full : bool }

let parse_cfg () =
  let rec go cfg = function
    | [] -> cfg
    | "--out" :: path :: rest -> go { cfg with out = Some path } rest
    | "--quick" :: rest -> go { cfg with full = false } rest
    | a :: _ ->
      prerr_endline ("bench10: unknown argument " ^ a);
      prerr_endline "usage: bench10 [--out PATH] [--quick]";
      exit 2
  in
  go { out = None; full = true } (List.tl (Array.to_list Sys.argv))

(* The pool re-executes the CLI as `gncg worker`; bench10.exe sits at
   _build/default/bench/, the CLI two doors down.  The @bench-serve-pool
   rule declares the dependency; a bare `dune exec bench/bench10.exe`
   needs `dune build bin/gncg_cli.exe` first. *)
let gncg_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "gncg_cli.exe")

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ok = function
  | Ok v -> v
  | Error e -> fail "%s" (Gncg_util.Gncg_error.to_string e)

let run_query c job =
  let id, _attached = ok (Client.submit c job) in
  ignore (ok (Client.watch c ~on_event:ignore id))

let client_loop ~iterations ~path ~record i =
  let c = ok (Client.connect_unix ~path) in
  for k = 0 to iterations - 1 do
    let seed = 1 + ((i + (clients * k)) mod 32) in
    let (), ping_s = time (fun () -> ignore (ok (Client.ping c))) in
    record "ping" ping_s;
    let (), eq_s =
      time (fun () ->
          run_query c
            (P.Eq_check
               {
                 model;
                 n = 6;
                 alpha = 2.0;
                 seed;
                 check = Gncg.Equilibrium.GE;
                 stabilize = false;
               }))
    in
    record "eq-check" eq_s;
    let (), br_s =
      time (fun () ->
          run_query c
            (P.Best_response { model; n = 6; alpha = 2.0; seed; agent = k mod 6 }))
    in
    record "best-response" br_s
  done;
  Client.close c

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))

let ns s = s *. 1e9

(* One daemon shape measured end to end: fresh session, own socket,
   warm-up pass (primes the per-worker host caches so the measured run
   sees steady state), then the 8-client fleet. *)
let measure ~iterations workers =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gncg-bench10-%d-w%d" (Unix.getpid ()) workers)
  in
  let path = dir ^ ".sock" in
  let session =
    if workers = 0 then Session.create ~state_dir:dir ~domains:2 ()
    else
      Session.create ~state_dir:dir
        ~pool:({ Pool.default_config with workers }, Pool.spawn_exec [| gncg_exe; "worker" |])
        ()
  in
  let server = Thread.create (fun () -> Server.serve_unix session ~path) () in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while not (Sys.file_exists path) do
    if Unix.gettimeofday () > deadline then fail "daemon socket never appeared";
    Thread.delay 0.01
  done;
  client_loop ~iterations ~path ~record:(fun _ _ -> ()) 0;
  let mutex = Mutex.create () in
  let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 4 in
  let record op s =
    Mutex.lock mutex;
    (match Hashtbl.find_opt samples op with
    | Some l -> l := s :: !l
    | None -> Hashtbl.replace samples op (ref [ s ]));
    Mutex.unlock mutex
  in
  let (), elapsed =
    time (fun () ->
        let threads =
          List.init clients (fun i ->
              Thread.create (client_loop ~iterations ~path ~record) i)
        in
        List.iter Thread.join threads)
  in
  let pool_json =
    match Session.pool_status session with
    | None -> Json.Null
    | Some status ->
      let restarts =
        match Result.bind (Json.member "restarts" status) Json.get_int with
        | Ok r -> r
        | Error _ -> -1
      in
      let breaker =
        match Result.bind (Json.member "breaker_open" status) Json.get_bool with
        | Ok b -> b
        | Error _ -> true
      in
      Json.Obj
        [
          ("spawns_seen", Json.Bool true);
          ("restarts", Json.num_int restarts);
          ("breaker_open", Json.Bool breaker);
        ]
  in
  (let c = ok (Client.connect_unix ~path) in
   ok (Client.shutdown c);
   Client.close c);
  Thread.join server;
  let all = Hashtbl.fold (fun _ l acc -> !l @ acc) samples [] |> Array.of_list in
  Array.sort compare all;
  let total = Array.length all in
  if total <> clients * iterations * 3 then
    fail "workers=%d: expected %d requests, measured %d" workers
      (clients * iterations * 3)
      total;
  let p99 = percentile all 0.99 in
  Printf.printf
    "bench10: workers=%d  %d requests in %.2fs (%.0f req/s)  p50 %.2fms  p99 %.2fms\n%!"
    workers total elapsed
    (float_of_int total /. elapsed)
    (percentile all 0.50 *. 1e3)
    (p99 *. 1e3);
  let op_row op =
    let l = Array.of_list !(Hashtbl.find samples op) in
    Array.sort compare l;
    let mean = Array.fold_left ( +. ) 0.0 l /. float_of_int (Array.length l) in
    Json.Obj
      [
        ("op", Json.Str op);
        ("count", Json.num_int (Array.length l));
        ("ns_per_op", Json.Num (ns mean));
        ("p50_ns", Json.Num (ns (percentile l 0.50)));
        ("p99_ns", Json.Num (ns (percentile l 0.99)));
      ]
  in
  let row =
    Json.Obj
      [
        ("workers", Json.num_int workers);
        ("requests", Json.num_int total);
        ("elapsed_s", Json.Num elapsed);
        ("requests_per_s", Json.Num (float_of_int total /. elapsed));
        ( "latency_ns",
          Json.Obj
            [
              ("p50", Json.Num (ns (percentile all 0.50)));
              ("p90", Json.Num (ns (percentile all 0.90)));
              ("p99", Json.Num (ns p99));
              ("max", Json.Num (ns all.(total - 1)));
            ] );
        ("results", Json.List (List.map op_row [ "ping"; "eq-check"; "best-response" ]));
        ("pool", pool_json);
      ]
  in
  (row, ns p99)

let () =
  let cfg = parse_cfg () in
  if not (Sys.file_exists gncg_exe) then
    fail "gncg CLI not found at %s (run `dune build bin/gncg_cli.exe` first)" gncg_exe;
  let iterations = if cfg.full then 20 else 5 in
  let was = Gncg_obs.Obs.profiling () in
  Gncg_obs.Obs.set_profiling true;
  Gncg_obs.Obs.reset ();
  let rows, p99_w4 =
    List.fold_left
      (fun (rows, p99_w4) w ->
        let row, p99 = measure ~iterations w in
        (row :: rows, if w = 4 then p99 else p99_w4))
      ([], 0.0) worker_levels
  in
  let rows = List.rev rows in
  let snap = Gncg_obs.Obs.snapshot () in
  Gncg_obs.Obs.set_profiling was;
  let counters =
    List.map (fun (name, v) -> (name, Json.num_int v)) snap.Gncg_obs.Metric.counters
  in
  let cores = Domain.recommended_domain_count () in
  let ratio = p99_w4 /. bench7_p99_ns in
  Printf.printf "bench10: workers=4 p99 %.3fx vs committed BENCH_7 (%d cores)\n%!" ratio
    cores;
  let doc =
    Json.Obj
      [
        ("schema", Json.Str schema_name);
        ("generated_by", Json.Str "bench/bench10.exe");
        ("full", Json.Bool cfg.full);
        ("cores", Json.num_int cores);
        ("clients", Json.num_int clients);
        ("bench7_p99_ns", Json.Num bench7_p99_ns);
        ("p99_workers4_vs_bench7", Json.Num ratio);
        ("rows", Json.List rows);
        ("counters", Json.Obj counters);
      ]
  in
  match cfg.out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "bench10: wrote %s\n%!" path
  | None -> print_endline (Json.to_string doc)
