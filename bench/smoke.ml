(* Bench smoke target (`dune build @bench-smoke`): one quick timing
   iteration of the hot-path engines, with hard equivalence assertions so
   a perf regression or a semantics drift in the incremental/parallel
   paths fails loudly in CI.  Full statistics live in timings.ml. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("bench-smoke: " ^ msg); exit 1) fmt

(* Schema check for the BENCH_N.json artifacts emitted by
   `bench/main.exe --json` (see bench4.ml): every result row must carry
   op / n / ns_per_op / allocs_per_op with sane values, and the macro
   baseline + speedup fields must be present.  Accepts gncg-bench-3
   (the committed PR-3 artifact) and gncg-bench-4, which additionally
   requires a counters object covering all four instrumented layers. *)
(* gncg-bench-7 is the serve-throughput shape (see bench7.ml): no
   baseline/speedup — the daemon has no single-op baseline — but the
   fleet-level rates and latency quantiles must be present, positive,
   and ordered. *)
let validate_bench7_json path doc =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> fail "%s: %s" path e in
  let module J = Gncg_runs.Json in
  let* clients = Result.bind (J.member "clients" doc) J.get_int in
  if clients < 8 then fail "%s: serve bench needs >= 8 concurrent clients, got %d" path clients;
  let* requests = Result.bind (J.member "requests" doc) J.get_int in
  let* rps = Result.bind (J.member "requests_per_s" doc) J.get_float in
  if requests <= 0 then fail "%s: non-positive request count" path;
  if Float.is_nan rps || rps <= 0.0 then fail "%s: invalid requests_per_s" path;
  let* latency = J.member "latency_ns" doc in
  let quantile name = Result.bind (J.member name latency) J.get_float in
  let* p50 = quantile "p50" in
  let* p90 = quantile "p90" in
  let* p99 = quantile "p99" in
  let* max_ns = quantile "max" in
  List.iter
    (fun (name, v) ->
      if Float.is_nan v || v <= 0.0 then fail "%s: invalid latency %s" path name)
    [ ("p50", p50); ("p90", p90); ("p99", p99); ("max", max_ns) ];
  if not (p50 <= p90 && p90 <= p99 && p99 <= max_ns) then
    fail "%s: latency quantiles out of order" path;
  let* results = Result.bind (J.member "results" doc) J.get_list in
  if results = [] then fail "%s: empty results" path;
  let counted =
    List.fold_left
      (fun acc r ->
        let* op = Result.bind (J.member "op" r) J.get_string in
        let* count = Result.bind (J.member "count" r) J.get_int in
        let* ns = Result.bind (J.member "ns_per_op" r) J.get_float in
        let* row_p50 = Result.bind (J.member "p50_ns" r) J.get_float in
        let* row_p99 = Result.bind (J.member "p99_ns" r) J.get_float in
        if count <= 0 then fail "%s: %s has non-positive count" path op;
        if Float.is_nan ns || ns <= 0.0 then fail "%s: %s has invalid ns_per_op" path op;
        if not (row_p50 > 0.0 && row_p50 <= row_p99) then
          fail "%s: %s has inconsistent latency quantiles" path op;
        acc + count)
      0 results
  in
  if counted <> requests then
    fail "%s: per-op counts sum to %d but requests is %d" path counted requests;
  Printf.printf "bench-smoke: %s valid (%d clients, %.0f req/s, p99 %.2fms)\n%!" path
    clients rps (p99 /. 1e6)

(* gncg-bench-8 is the distance-backend scaling shape (see bench8.ml):
   rows carry a backend id and a memory footprint.  Beyond well-formedness
   the validator enforces the point of the artifact — the implicit
   oracles must report footprints at least an order of magnitude below
   the 8n² bytes a dense matrix would cost, and the replayed dense
   dynamics macro must stay within 1.1x of the committed BENCH_4 row. *)
let validate_bench8_json path doc =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> fail "%s: %s" path e in
  let module J = Gncg_runs.Json in
  let* full = Result.bind (J.member "full" doc) J.get_bool in
  let* baseline = J.member "baseline" doc in
  let* base_ns = Result.bind (J.member "ns_per_op" baseline) J.get_float in
  if not (base_ns > 0.0) then fail "%s: baseline ns_per_op must be positive" path;
  let* ratio = Result.bind (J.member "dense_dynamics_n100_vs_bench4" doc) J.get_float in
  let* results = Result.bind (J.member "results" doc) J.get_list in
  if results = [] then fail "%s: empty results" path;
  let macro100 = ref None in
  let oracle_ns = ref [] in
  List.iter
    (fun r ->
      let* op = Result.bind (J.member "op" r) J.get_string in
      let* backend = Result.bind (J.member "backend" r) J.get_string in
      let* n = Result.bind (J.member "n" r) J.get_int in
      let* ns = Result.bind (J.member "ns_per_op" r) J.get_float in
      let* mem = Result.bind (J.member "mem_bytes" r) J.get_int in
      if n <= 0 then fail "%s: %s/%s has non-positive n" path op backend;
      if Float.is_nan ns || ns <= 0.0 then
        fail "%s: %s/%s has invalid ns_per_op" path op backend;
      if mem < 0 then fail "%s: %s/%s has negative mem_bytes" path op backend;
      if (backend = "tree" || backend = "rd") && n >= 1000 && 10 * mem >= 8 * n * n
      then
        fail "%s: %s backend at n=%d reports %d bytes — not an implicit oracle"
          path backend n mem;
      if backend = "tree" || backend = "rd" then
        oracle_ns := (backend, n) :: !oracle_ns;
      if op = "dynamics-converge" && n = 100 && backend = "dense" then
        macro100 := Some ns)
    results;
  (match !macro100 with
  | None -> fail "%s: missing the dense dynamics-converge n=100 anchor row" path
  | Some ns ->
    if not (Gncg_util.Flt.approx_eq ~tol:0.05 ratio (ns /. base_ns)) then
      fail "%s: dense_dynamics_n100_vs_bench4 inconsistent with the macro row" path;
    (* The regression bar binds the committed reference artifact (full
       runs); quick CI regenerations on shared runners are indicative. *)
    if full && ratio > 1.1 then
      fail "%s: dense dynamics regressed %.3fx vs BENCH_4 (bar: 1.1x)" path ratio);
  List.iter
    (fun backend ->
      if not (List.mem_assoc backend !oracle_ns) then
        fail "%s: no %s oracle rows at all" path backend)
    [ "tree"; "rd" ];
  let* skipped = Result.bind (J.member "skipped" doc) J.get_list in
  List.iter
    (fun r ->
      let* backend = Result.bind (J.member "backend" r) J.get_string in
      let* _reason = Result.bind (J.member "reason" r) J.get_string in
      if backend = "tree" || backend = "rd" then
        fail "%s: the %s oracle should never be skipped" path backend)
    skipped;
  let* counters = J.member "counters" doc in
  let keys =
    match counters with
    | J.Obj fields -> List.map fst fields
    | _ -> fail "%s: counters must be an object" path
  in
  List.iter
    (fun prefix ->
      if not (List.exists (fun k -> String.starts_with ~prefix k) keys) then
        fail "%s: counters missing the %s* backend" path prefix)
    [ "tree_dist."; "rd_dist."; "distances." ];
  Printf.printf "bench-smoke: %s valid (%d results, dense macro %.3fx vs BENCH_4)\n%!"
    path (List.length results) ratio

(* gncg-bench-10 is the worker-pool serve-throughput shape (see
   bench10.ml): the bench7 fleet replayed against workers ∈ {0, 1, 4}.
   Beyond per-row well-formedness (the bench7 invariants, per row) the
   validator enforces the point of the artifact — the pool must have
   actually run (serve.pool.spawns ticked, pool objects on the
   workers>0 rows, breaker closed throughout), and on hardware that can
   show it (full artifact, >= 4 cores) the workers=4 fleet p99 must
   beat the committed BENCH_7 in-process baseline. *)
let validate_bench10_json path doc =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> fail "%s: %s" path e in
  let module J = Gncg_runs.Json in
  let* full = Result.bind (J.member "full" doc) J.get_bool in
  let* cores = Result.bind (J.member "cores" doc) J.get_int in
  if cores < 1 then fail "%s: cores must be >= 1" path;
  let* clients = Result.bind (J.member "clients" doc) J.get_int in
  if clients < 8 then fail "%s: serve bench needs >= 8 concurrent clients, got %d" path clients;
  let* base_p99 = Result.bind (J.member "bench7_p99_ns" doc) J.get_float in
  if not (base_p99 > 0.0) then fail "%s: bench7_p99_ns must be positive" path;
  let* ratio = Result.bind (J.member "p99_workers4_vs_bench7" doc) J.get_float in
  let* rows = Result.bind (J.member "rows" doc) J.get_list in
  if rows = [] then fail "%s: empty rows" path;
  let seen = ref [] in
  let p99_w4 = ref None in
  List.iter
    (fun row ->
      let* workers = Result.bind (J.member "workers" row) J.get_int in
      if workers < 0 then fail "%s: negative workers" path;
      if List.mem workers !seen then fail "%s: duplicate workers=%d row" path workers;
      seen := workers :: !seen;
      let* requests = Result.bind (J.member "requests" row) J.get_int in
      let* rps = Result.bind (J.member "requests_per_s" row) J.get_float in
      if requests <= 0 then fail "%s: workers=%d has no requests" path workers;
      if Float.is_nan rps || rps <= 0.0 then
        fail "%s: workers=%d has invalid requests_per_s" path workers;
      let* latency = J.member "latency_ns" row in
      let quantile name = Result.bind (J.member name latency) J.get_float in
      let* p50 = quantile "p50" in
      let* p90 = quantile "p90" in
      let* p99 = quantile "p99" in
      let* max_ns = quantile "max" in
      List.iter
        (fun (name, v) ->
          if Float.is_nan v || v <= 0.0 then
            fail "%s: workers=%d invalid latency %s" path workers name)
        [ ("p50", p50); ("p90", p90); ("p99", p99); ("max", max_ns) ];
      if not (p50 <= p90 && p90 <= p99 && p99 <= max_ns) then
        fail "%s: workers=%d latency quantiles out of order" path workers;
      if workers = 4 then p99_w4 := Some p99;
      let* results = Result.bind (J.member "results" row) J.get_list in
      let counted =
        List.fold_left
          (fun acc r ->
            let* op = Result.bind (J.member "op" r) J.get_string in
            let* count = Result.bind (J.member "count" r) J.get_int in
            let* ns = Result.bind (J.member "ns_per_op" r) J.get_float in
            if count <= 0 then fail "%s: workers=%d %s has non-positive count" path workers op;
            if Float.is_nan ns || ns <= 0.0 then
              fail "%s: workers=%d %s has invalid ns_per_op" path workers op;
            acc + count)
          0 results
      in
      if counted <> requests then
        fail "%s: workers=%d per-op counts sum to %d but requests is %d" path workers
          counted requests;
      let* pool = J.member "pool" row in
      match (workers, pool) with
      | 0, J.Null -> ()
      | 0, _ -> fail "%s: workers=0 row must not report a pool" path
      | _, J.Null -> fail "%s: workers=%d row is missing its pool status" path workers
      | _, pool ->
        let* restarts = Result.bind (J.member "restarts" pool) J.get_int in
        let* breaker = Result.bind (J.member "breaker_open" pool) J.get_bool in
        if restarts < 0 then fail "%s: workers=%d negative restarts" path workers;
        (* A healthy bench run injects no faults: a tripped breaker means
           the fleet died under plain load. *)
        if breaker then fail "%s: workers=%d tripped the breaker under load" path workers)
    rows;
  List.iter
    (fun w ->
      if not (List.mem w !seen) then fail "%s: missing the workers=%d row" path w)
    [ 0; 1; 4 ];
  (match !p99_w4 with
  | None -> fail "%s: missing the workers=4 row" path
  | Some p99 ->
    if not (Gncg_util.Flt.approx_eq ~tol:0.05 ratio (p99 /. base_p99)) then
      fail "%s: p99_workers4_vs_bench7 inconsistent with the workers=4 row" path;
    (* The tail-latency bar binds only where process parallelism is
       physically available and the artifact is a full run; a 1-core
       container records cores=1 and the figure is informative. *)
    if full && cores >= 4 && ratio >= 1.0 then
      fail "%s: workers=4 p99 %.2fx vs BENCH_7 at %d cores (bar: < 1x)" path ratio cores);
  let* counters = J.member "counters" doc in
  let keys =
    match counters with
    | J.Obj fields -> List.map fst fields
    | _ -> fail "%s: counters must be an object" path
  in
  if not (List.exists (fun k -> String.starts_with ~prefix:"serve.pool." k) keys) then
    fail "%s: counters missing serve.pool.*" path;
  (match Result.bind (J.member "serve.pool.spawns" counters) J.get_int with
  | Ok v when v > 0 -> ()
  | Ok _ -> fail "%s: serve.pool.spawns is zero — the pool never ran" path
  | Error _ -> fail "%s: counters missing serve.pool.spawns" path);
  Printf.printf
    "bench-smoke: %s valid (%d rows, workers=4 p99 %.3fx vs BENCH_7 @ %d cores)\n%!"
    path (List.length rows) ratio cores

let validate_bench_json path =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> fail "%s: %s" path e in
  let text =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  let module J = Gncg_runs.Json in
  let* doc = J.parse (String.trim text) in
  let* schema = Result.bind (J.member "schema" doc) J.get_string in
  if
    schema <> "gncg-bench-3" && schema <> "gncg-bench-4" && schema <> "gncg-bench-7"
    && schema <> "gncg-bench-8" && schema <> "gncg-bench-10"
  then fail "%s: unexpected schema %S" path schema;
  if schema = "gncg-bench-7" then validate_bench7_json path doc
  else if schema = "gncg-bench-8" then validate_bench8_json path doc
  else if schema = "gncg-bench-10" then validate_bench10_json path doc
  else begin
  if schema = "gncg-bench-4" then begin
    (* The instrumented pass must have ticked at least one probe in each
       of the four engine layers (distance core, net state, dynamics,
       runs scheduler). *)
    let* counters = J.member "counters" doc in
    let keys =
      match counters with
      | J.Obj fields -> List.map fst fields
      | _ -> fail "%s: counters must be an object" path
    in
    List.iter
      (fun prefix ->
        if not (List.exists (fun k -> String.starts_with ~prefix k) keys) then
          fail "%s: counters missing the %s* layer" path prefix)
      [ "incr_apsp."; "net_state."; "dynamics."; "runs." ]
  end;
  let* baseline = J.member "baseline" doc in
  let* base_ns = Result.bind (J.member "ns_per_op" baseline) J.get_float in
  if not (base_ns > 0.0) then fail "%s: baseline ns_per_op must be positive" path;
  let* speedup = Result.bind (J.member "speedup_vs_baseline" doc) J.get_float in
  let* results = Result.bind (J.member "results" doc) J.get_list in
  if results = [] then fail "%s: empty results" path;
  let macro = ref None in
  List.iter
    (fun r ->
      let* op = Result.bind (J.member "op" r) J.get_string in
      let* n = Result.bind (J.member "n" r) J.get_int in
      let* ns = Result.bind (J.member "ns_per_op" r) J.get_float in
      let* _allocs = Result.bind (J.member "allocs_per_op" r) J.get_float in
      if n <= 0 then fail "%s: %s has non-positive n" path op;
      if Float.is_nan ns || ns <= 0.0 then fail "%s: %s has invalid ns_per_op" path op;
      if op = "dynamics-converge" then macro := Some (n, ns))
    results;
  (match !macro with
  | None -> fail "%s: missing dynamics-converge macro row" path
  | Some (n, ns) ->
    (* The committed baseline is a n=100 measurement; runs at another
       --n write speedup_vs_baseline = 0.0 because the ratio would be
       meaningless (see bench4.ml). *)
    let expected = if n = 100 then base_ns /. ns else 0.0 in
    if not (Gncg_util.Flt.approx_eq ~tol:0.05 speedup expected) then
      fail "%s: speedup_vs_baseline inconsistent with the macro row" path);
  Printf.printf "bench-smoke: %s valid (%d results, %.2fx vs baseline)\n%!" path
    (List.length results) speedup
  end

(* Chaos smoke (`--chaos`): a seeded fault-injection batch must classify
   faults exactly as the plan predicts, recover flaky jobs through
   retries, and resume cleanly across a torn journal. *)
let chaos_smoke () =
  let module R = Gncg_runs in
  let config =
    R.Batch.config
      (Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 5.0 })
      ~ns:[ 5; 6 ] ~alphas:[ 1.0; 3.0 ] ~seeds:[ 1; 2; 3 ]
  in
  let plan = R.Chaos.plan ~seed:42 ~crash_p:0.4 ~fault_attempts:1 () in
  let jobs = R.Batch.jobs config in
  let predicted_crashes =
    List.length
      (List.filter
         (fun j -> R.Chaos.decide plan ~key:(R.Job.hash j) ~attempt:1 = Some R.Chaos.Crash)
         jobs)
  in
  if predicted_crashes = 0 then fail "chaos plan injected nothing; bump crash_p";
  (* No retries: every injected crash must surface as Crashed. *)
  let no_retry =
    R.Batch.run ~retries:0
      ~exec:(R.Chaos.wrap plan ~key:R.Job.hash R.Job.execute)
      config
  in
  if no_retry.progress.crashed <> predicted_crashes then
    fail "chaos: %d crashes predicted, %d observed" predicted_crashes
      no_retry.progress.crashed;
  (* One retry outlasts fault_attempts = 1: the same plan must now
     complete everything, with the retry pressure on record. *)
  let journal = Filename.temp_file "gncg_chaos" ".jsonl" in
  let retried =
    R.Batch.run ~retries:1
      ~exec:(R.Chaos.wrap plan ~key:R.Job.hash R.Job.execute)
      ~journal config
  in
  if retried.progress.crashed <> 0 then
    fail "chaos: %d jobs still crashed with retries" retried.progress.crashed;
  if retried.progress.retries < predicted_crashes then
    fail "chaos: retry attempts under-counted (%d < %d)" retried.progress.retries
      predicted_crashes;
  (* Tear the journal the way a kill -9 does; resume must re-execute
     exactly the one job whose terminal entry was destroyed. *)
  R.Chaos.truncate_last_line journal;
  (match R.Batch.resume ~journal () with
  | Error msg -> fail "chaos: resume after truncation failed: %s" msg
  | Ok resumed ->
    if resumed.progress.executed <> 1 then
      fail "chaos: truncated resume re-executed %d jobs, wanted 1"
        resumed.progress.executed;
    if
      Gncg_workload.Report.runs_to_csv resumed.runs
      <> Gncg_workload.Report.runs_to_csv retried.runs
    then fail "chaos: resumed runs differ from the uninterrupted batch");
  Sys.remove journal;
  (* Distance-store fault injection: corrupt one maintained cell of a
     dense engine, require the drift sentinel to detect and self-heal,
     and the healed store to match an untouched dense engine exactly. *)
  (let module D = Gncg_graph.Distances in
   let rng = Gncg_util.Prng.create 11 in
   let n = 24 in
   let g =
     Gncg_metric.Tree_metric.graph
       (Gncg_metric.Tree_metric.random rng ~n ~wmin:1.0 ~wmax:5.0)
   in
   let faulty = D.dense g in
   let reference = D.dense (Gncg_graph.Wgraph.copy g) in
   let agree msg =
     for u = 0 to n - 1 do
       for v = 0 to n - 1 do
         if D.distance faulty u v <> D.distance reference u v then
           fail "chaos: faulted/reference dense disagree at (%d,%d) %s" u v msg
       done
     done
   in
   agree "before injection";
   D.inject_cell_error faulty 3 7 0.25;
   let detected = ref false in
   (* One sentinel probe covers one source; a full rotation must find the
      corrupt cell and repair it. *)
   for _ = 1 to n do
     if not (D.selfcheck_now faulty) then detected := true
   done;
   if not !detected then fail "chaos: dense sentinel missed an injected cell error";
   if not (D.selfcheck_now faulty) then fail "chaos: dense sentinel failed to self-heal";
   agree "after repair");
  Printf.printf "chaos-smoke: %d jobs, %d injected crashes classified, torn journal \
                 resumed, dense cell fault healed\n%!"
    (List.length jobs) predicted_crashes;
  print_endline "chaos-smoke ok";
  exit 0

let () =
  let chaos = ref false in
  let rec parse = function
    | [] -> ()
    | "--validate-json" :: path :: _ ->
      validate_bench_json path;
      exit 0
    | "--domains" :: d :: rest -> (
      match int_of_string_opt d with
      | Some k when k >= 1 ->
        Gncg_util.Parallel.set_default_domains (Some k);
        parse rest
      | _ -> fail "--domains expects a positive integer, got %S" d)
    | "--selfcheck" :: c :: rest -> (
      match int_of_string_opt c with
      | Some k when k >= 1 ->
        Gncg_graph.Incr_apsp.set_default_selfcheck k;
        parse rest
      | _ -> fail "--selfcheck expects a positive integer, got %S" c)
    | "--chaos" :: rest ->
      chaos := true;
      parse rest
    | a :: _ -> fail "unknown argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !chaos then chaos_smoke ();
  let rng = Gncg_util.Prng.create 7 in
  let n = 60 in
  let host =
    Gncg.Host.make ~alpha:2.0
      (Gncg_metric.Random_host.uniform_metric rng ~n ~lo:1.0 ~hi:6.0)
  in
  let start = Gncg_workload.Instances.random_profile rng host in
  let run evaluator =
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 ~evaluator
         Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
  in
  let reference, t_ref = time (fun () -> run `Reference) in
  let incremental, t_inc = time (fun () -> run `Incremental) in
  let profile_of = function
    | Gncg.Dynamics.Converged { profile; _ } -> profile
    | _ -> fail "greedy dynamics did not converge (n=%d)" n
  in
  let p_ref = profile_of reference and p_inc = profile_of incremental in
  (* Tie-breaking may differ within tolerance: both must be greedy-stable
     with matching social cost, not bit-identical histories. *)
  if not (Gncg.Equilibrium.is_ge host p_inc) then
    fail "incremental dynamics converged to a non-GE profile";
  let c_ref = Gncg.Cost.social_cost host p_ref in
  let c_inc = Gncg.Cost.social_cost host p_inc in
  if not (Gncg_util.Flt.approx_eq ~tol:1e-6 c_ref c_inc) then
    fail "reference/incremental stable costs diverge: %.9f vs %.9f" c_ref c_inc;
  Printf.printf "dynamics n=%d: reference %.3f s, incremental %.3f s (%.1fx)\n%!" n t_ref
    t_inc (t_ref /. t_inc);
  let seq, t_seq = time (fun () -> Gncg.Equilibrium.is_ge host p_inc) in
  let par, t_par = time (fun () -> Gncg.Equilibrium.is_ge ~exec:Gncg_util.Exec.default host p_inc) in
  if seq <> par then fail "sequential/parallel is_ge disagree";
  Printf.printf "is_ge n=%d: sequential %.3f s, parallel %.3f s (%.1fx, %d domains)\n%!" n
    t_seq t_par (t_seq /. t_par)
    (Gncg_util.Parallel.default_domains ());
  (* Journal smoke: run a tiny journaled batch, resume it, and require
     that the resume re-executes nothing and reproduces the same runs. *)
  let journal = Filename.temp_file "gncg_smoke" ".jsonl" in
  let config =
    Gncg_runs.Batch.config
      (Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 5.0 })
      ~ns:[ 5 ] ~alphas:[ 1.0; 4.0 ] ~seeds:[ 1; 2 ]
  in
  let first = Gncg_runs.Batch.run ~journal config in
  (match Gncg_runs.Batch.resume ~journal () with
  | Error msg -> fail "journal resume failed: %s" msg
  | Ok resumed ->
    if resumed.progress.executed <> 0 then
      fail "resume of a complete journal re-executed %d jobs" resumed.progress.executed;
    if
      Gncg_workload.Report.runs_to_csv resumed.runs
      <> Gncg_workload.Report.runs_to_csv first.runs
    then fail "resumed runs differ from the original batch");
  Sys.remove journal;
  Printf.printf "journal run/resume: %d jobs, resume re-executed 0\n%!"
    first.progress.total;
  print_endline "bench-smoke ok"
