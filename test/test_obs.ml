(* The observability layer (lib/obs): counters/histograms and their
   cross-domain merge, sinks and the JSONL encoding, span probes, and —
   the property the whole design rests on — that attaching a sink or
   enabling profiling never changes an engine verdict. *)

module Obs = Gncg_obs.Obs
module Metric = Gncg_obs.Metric
module Sink = Gncg_obs.Sink
module Span = Gncg_obs.Span

(* Every test must leave the process-wide observability state as it
   found it (off): the rest of the suite runs with instrumentation
   disabled, which is also the configuration the benchmark under
   benchmark/ times. *)
let shielded f () =
  Fun.protect
    ~finally:(fun () ->
      Metric.set_enabled false;
      Sink.install None)
    f

let test_counter_gating () =
  let c = Metric.Counter.make "test_obs.gating" in
  Metric.Counter.reset c;
  Metric.set_enabled false;
  Metric.Counter.incr c;
  Metric.Counter.add c 41;
  Alcotest.(check int) "disabled increments are dropped" 0 (Metric.Counter.value c);
  Metric.set_enabled true;
  Metric.Counter.incr c;
  Metric.Counter.add c 41;
  Alcotest.(check int) "enabled increments land" 42 (Metric.Counter.value c);
  Alcotest.(check bool) "registry returns the same counter"
    true
    (match Metric.find_counter "test_obs.gating" with
    | Some c' -> Metric.Counter.value c' = 42
    | None -> false)

let test_counter_cross_domain () =
  let c = Metric.Counter.make "test_obs.cross_domain" in
  Metric.Counter.reset c;
  Metric.set_enabled true;
  let per = 10_000 and tasks = 8 in
  ignore
    (Gncg_util.Exec.init ~exec:(Gncg_util.Exec.par ~domains:4 ()) tasks (fun _ ->
         for _ = 1 to per do
           Metric.Counter.incr c
         done));
  Alcotest.(check int) "atomic increments merge exactly" (per * tasks)
    (Metric.Counter.value c)

let test_histogram_buckets () =
  let h = Metric.Histogram.make "test_obs.buckets" in
  Metric.Histogram.reset h;
  Metric.set_enabled true;
  List.iter (Metric.Histogram.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 1e300 ];
  Alcotest.(check int) "count" 6 (Metric.Histogram.count h);
  Alcotest.(check (float 1e290)) "sum" (0.5 +. 1.0 +. 1.5 +. 2.0 +. 3.0 +. 1e300)
    (Metric.Histogram.sum h);
  let buckets = Metric.Histogram.buckets h in
  (* 0.5 and 1.0 land in the <=1 bucket; 1.5 and 2.0 in (1,2]; 3.0 in
     (2,4]; the huge value in the open-ended last bucket. *)
  (match buckets with
  | (b1, 2) :: (b2, 2) :: (b3, 1) :: _ ->
    Alcotest.(check (float 0.0)) "first bound" 1.0 b1;
    Alcotest.(check (float 0.0)) "second bound" 2.0 b2;
    Alcotest.(check (float 0.0)) "third bound" 4.0 b3
  | _ -> Alcotest.fail "unexpected bucket layout");
  Alcotest.(check int) "bucketed observations add up" 6
    (List.fold_left (fun acc (_, k) -> acc + k) 0 buckets)

let test_snapshot_merge () =
  let c = Metric.Counter.make "test_obs.merge_c" in
  let h = Metric.Histogram.make "test_obs.merge_h" in
  Metric.Counter.reset c;
  Metric.Histogram.reset h;
  Metric.set_enabled true;
  Metric.Counter.add c 3;
  Metric.Histogram.observe h 1.5;
  let before = Metric.snapshot () in
  Metric.Counter.add c 4;
  Metric.Histogram.observe h 1.5;
  Metric.Histogram.observe h 100.0;
  let after = Metric.snapshot () in
  let merged = Metric.merge before after in
  Alcotest.(check int) "merged counter is the sum" (3 + 7)
    (List.assoc "test_obs.merge_c" merged.Metric.counters);
  let hm = List.assoc "test_obs.merge_h" merged.Metric.histograms in
  Alcotest.(check int) "merged histogram count" 4 hm.Metric.hcount;
  Alcotest.(check (float 1e-9)) "merged histogram sum" (1.5 +. 1.5 +. 1.5 +. 100.0)
    hm.Metric.hsum;
  Alcotest.(check int) "merged buckets add up" 4
    (List.fold_left (fun acc (_, k) -> acc + k) 0 hm.Metric.hbuckets)

let test_span_memory_sink () =
  let sink, events = Sink.memory () in
  Sink.install (Some sink);
  let fields_built = ref 0 in
  let r =
    Span.with_
      ~fields:(fun () ->
        incr fields_built;
        [ ("agent", Sink.Int 7) ])
      "test_obs.region"
      (fun () -> 40 + 2)
  in
  Alcotest.(check int) "body result passes through" 42 r;
  Sink.install None;
  (* With no sink the fields thunk must not even be evaluated. *)
  ignore (Span.with_ ~fields:(fun () -> incr fields_built; []) "test_obs.region" (fun () -> ()));
  Alcotest.(check int) "fields thunk evaluated only when a sink is active" 1 !fields_built;
  match events () with
  | [ e ] ->
    Alcotest.(check string) "kind" "span" e.Sink.kind;
    Alcotest.(check string) "name" "test_obs.region" e.Sink.name;
    Alcotest.(check bool) "caller field kept" true
      (List.mem_assoc "agent" e.Sink.fields);
    (match List.assoc_opt "dur_ns" e.Sink.fields with
    | Some (Sink.Float d) -> Alcotest.(check bool) "duration non-negative" true (d >= 0.0)
    | _ -> Alcotest.fail "span event lacks dur_ns")
  | es -> Alcotest.fail (Printf.sprintf "expected exactly one event, got %d" (List.length es))

let test_span_histogram () =
  Metric.set_enabled true;
  let p = Span.probe "test_obs.timed" in
  let h =
    match Metric.find_histogram "span.test_obs.timed" with
    | Some h -> h
    | None -> Alcotest.fail "probe did not register its histogram"
  in
  Metric.Histogram.reset h;
  for _ = 1 to 5 do
    Span.with_probe p (fun () -> ())
  done;
  Alcotest.(check int) "every span observed" 5 (Metric.Histogram.count h);
  Alcotest.(check bool) "durations sum to something finite" true
    (Float.is_finite (Metric.Histogram.sum h))

let test_jsonl_encoding () =
  let event =
    {
      Sink.kind = "span";
      name = "dynamics.step";
      t_ns = 12345.0;
      fields =
        [
          ("agent", Sink.Int 3);
          ("dur_ns", Sink.Float 1.5);
          ("rule", Sink.Str "greedy");
          ("accepted", Sink.Bool true);
          ("bad", Sink.Float Float.nan);
        ];
    }
  in
  let line = Sink.event_to_json event in
  let module J = Gncg_runs.Json in
  match J.parse line with
  | Error e -> Alcotest.fail ("event_to_json emitted unparsable JSON: " ^ e)
  | Ok doc ->
    let str k = Result.bind (J.member k doc) J.get_string in
    Alcotest.(check (result string string)) "kind" (Ok "span") (str "kind");
    Alcotest.(check (result string string)) "name" (Ok "dynamics.step") (str "name");
    Alcotest.(check bool) "int field" true
      (Result.bind (J.member "agent" doc) J.get_int = Ok 3);
    Alcotest.(check bool) "bool field" true
      (match J.member "accepted" doc with Ok (J.Bool b) -> b | _ -> false);
    Alcotest.(check bool) "non-finite floats become null" true
      (match J.member "bad" doc with Ok J.Null -> true | _ -> false)

let test_trace_file_roundtrip () =
  let path = Filename.temp_file "gncg_obs" ".jsonl" in
  Obs.trace_to_file path;
  let rng = Gncg_util.Prng.create 11 in
  let host =
    Gncg.Host.make ~alpha:2.0
      (Gncg_metric.Random_host.uniform_metric rng ~n:12 ~lo:1.0 ~hi:4.0)
  in
  let start = Gncg_workload.Instances.random_profile rng host in
  ignore
    (Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start);
  Obs.close_trace ();
  let lines =
    let ic = open_in path in
    let rec go acc = match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    go []
  in
  Sys.remove path;
  Alcotest.(check bool) "trace has events" true (List.length lines > 0);
  let module J = Gncg_runs.Json in
  let docs =
    List.map
      (fun line ->
        match J.parse line with
        | Ok doc -> doc
        | Error e -> Alcotest.fail ("unparsable trace line: " ^ e ^ ": " ^ line))
      lines
  in
  let kind doc = Result.bind (J.member "kind" doc) J.get_string in
  Alcotest.(check bool) "span events present" true
    (List.exists (fun d -> kind d = Ok "span") docs);
  let last = List.nth docs (List.length docs - 1) in
  Alcotest.(check (result string string)) "final event is the counter dump" (Ok "counters")
    (kind last);
  Alcotest.(check bool) "counter dump carries dynamics.evaluations" true
    (match J.member "dynamics.evaluations" last with
    | Ok v -> (match J.get_int v with Ok n -> n > 0 | Error _ -> false)
    | Error _ -> false)

(* The acceptance property of the whole layer: a traced + profiled run
   is verdict-identical to a plain one. *)
let prop_trace_transparent =
  QCheck.Test.make ~count:12 ~name:"tracing never changes a sweep verdict"
    QCheck.(triple (int_range 5 9) (int_range 1 6) small_nat)
    (fun (n, alpha_i, seed) ->
      let model = Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 5.0 } in
      let run () =
        Gncg_runs.Job.execute
          (Gncg_runs.Job.make ~max_steps:4000 model ~n ~alpha:(float_of_int alpha_i) ~seed)
      in
      let plain = run () in
      let traced =
        Fun.protect
          ~finally:(fun () ->
            Metric.set_enabled false;
            Sink.install None)
          (fun () ->
            let sink, _events = Sink.memory () in
            Sink.install (Some sink);
            Metric.set_enabled true;
            run ())
      in
      Gncg_workload.Report.runs_to_csv [ plain ]
      = Gncg_workload.Report.runs_to_csv [ traced ])

(* End-to-end layer coverage: one profiled pass through the incremental
   dynamics, the tracker and a scheduler batch must tick counters in all
   four instrumented layers and emit span events. *)
let test_four_layer_coverage () =
  let sink, events = Sink.memory () in
  Sink.install (Some sink);
  Metric.set_enabled true;
  Obs.reset ();
  let rng = Gncg_util.Prng.create 5 in
  let host =
    Gncg.Host.make ~alpha:2.0
      (Gncg_metric.Random_host.uniform_metric rng ~n:14 ~lo:1.0 ~hi:4.0)
  in
  let start = Gncg_workload.Instances.random_profile rng host in
  let stable =
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:6000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
    with
    | Gncg.Dynamics.Converged { profile; _ } -> profile
    | _ -> Alcotest.fail "dynamics did not converge"
  in
  let st = Gncg.Net_state.create host stable in
  let tracker = Gncg.Equilibrium.Tracker.create Gncg.Equilibrium.GE st in
  Alcotest.(check bool) "stable profile is a GE" true
    (Gncg.Equilibrium.Tracker.is_equilibrium tracker);
  let config =
    Gncg_runs.Job.grid (Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 5.0 })
      ~ns:[ 5 ] ~alphas:[ 2.0 ] ~seeds:[ 1; 2 ]
  in
  ignore (Gncg_runs.Batch.run ~domains:2 config);
  let snap = Metric.snapshot () in
  let nonzero prefix =
    List.exists
      (fun (name, v) -> String.starts_with ~prefix name && v > 0)
      snap.Metric.counters
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ "* counters ticked") true (nonzero prefix))
    [ "incr_apsp."; "net_state."; "dynamics."; "equilibrium."; "runs." ];
  let es = events () in
  let span_named name =
    List.exists (fun e -> e.Sink.kind = "span" && e.Sink.name = name) es
  in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " span emitted") true (span_named name))
    [ "dynamics.step"; "dynamics.run"; "equilibrium.scan"; "runs.job" ]

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "counter gating and registry" `Quick (shielded test_counter_gating);
        Alcotest.test_case "counter merge across domains" `Quick
          (shielded test_counter_cross_domain);
        Alcotest.test_case "histogram buckets" `Quick (shielded test_histogram_buckets);
        Alcotest.test_case "snapshot merge" `Quick (shielded test_snapshot_merge);
        Alcotest.test_case "span -> memory sink" `Quick (shielded test_span_memory_sink);
        Alcotest.test_case "span -> histogram" `Quick (shielded test_span_histogram);
        Alcotest.test_case "jsonl encoding" `Quick (shielded test_jsonl_encoding);
        Alcotest.test_case "trace file roundtrip" `Quick
          (shielded test_trace_file_roundtrip);
        Alcotest.test_case "four-layer coverage" `Quick (shielded test_four_layer_coverage);
        QCheck_alcotest.to_alcotest prop_trace_transparent;
      ] );
  ]
