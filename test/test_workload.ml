open Helpers
module W = Gncg_workload
module Prng = Gncg_util.Prng
module Job = Gncg_runs.Job

(* Sweep rows as the sweep commands build them: from job specs under the
   default rule and step budget. *)
let dynamics_run model ~n ~alpha ~seed = Job.execute (Job.make model ~n ~alpha ~seed)

let batch model ~ns ~alphas ~seeds =
  (Gncg_runs.Batch.run ~domains:1 (Job.grid model ~ns ~alphas ~seeds)).runs

let test_models_produce_valid_hosts () =
  let r = rng 1000 in
  List.iter
    (fun model ->
      let m = W.Instances.random_metric r model ~n:9 in
      Alcotest.(check int) "size" 9 (Gncg_metric.Metric.n m);
      match model with
      | W.Instances.One_two _ ->
        check_true "1-2 weights" (Gncg_metric.One_two.is_one_two m)
      | W.Instances.Tree _ ->
        check_true "tree metric" (Gncg_metric.Tree_metric.is_tree_metric m)
      | W.Instances.Euclid _ | W.Instances.Graph_metric _ ->
        check_true "metric" (Gncg_metric.Metric.is_metric m)
      | W.Instances.General _ ->
        check_true "finite weights" (Float.is_finite (Gncg_metric.Metric.max_finite_weight m))
      | W.Instances.One_inf _ ->
        check_true "1-inf weights" (Gncg_metric.One_inf.is_one_inf m))
    W.Instances.default_models

let test_random_profile_connected () =
  let r = rng 1001 in
  List.iter
    (fun model ->
      let host = W.Instances.random_host r model ~n:9 ~alpha:2.0 in
      let s = W.Instances.random_profile r host in
      check_true "profile connects all agents" (Gncg.Network.is_connected host s);
      check_true "no double purchases" (Gncg.Strategy.double_bought s = []);
      (* Only affordable edges are bought. *)
      List.iter
        (fun (u, v) ->
          check_true "finite edge" (Float.is_finite (Gncg.Host.weight host u v)))
        (Gncg.Strategy.owned_edges s))
    W.Instances.default_models

let test_model_names_distinct () =
  let names = List.map W.Instances.model_name W.Instances.default_models in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_dynamics_run_record () =
  let run =
    dynamics_run (W.Instances.Tree { wmin = 1.0; wmax = 5.0 }) ~n:6 ~alpha:2.0
      ~seed:3
  in
  check_true "opt positive" (run.W.Sweep.opt_cost > 0.0);
  if run.W.Sweep.converged then begin
    check_true "ratio >= 1" (run.W.Sweep.ratio >= 1.0 -. 1e-9);
    check_true "stable cost consistent"
      (approx ~tol:1e-6 run.W.Sweep.stable_cost (run.W.Sweep.ratio *. run.W.Sweep.opt_cost));
    (* Thm 12: tree-metric greedy equilibria found here are trees. *)
    check_true "tree-shaped" run.W.Sweep.is_tree
  end

let test_one_agent_ratio () =
  (* One agent builds nothing and pays nothing, as does the optimum: the
     PoA ratio of that 0/0 is 1, never NaN, in the record and the CSV. *)
  List.iter
    (fun model ->
      let run = dynamics_run model ~n:1 ~alpha:2.0 ~seed:1 in
      check_true "converged" run.W.Sweep.converged;
      Alcotest.(check (float 0.)) "ratio of 0/0 is 1" 1.0 run.W.Sweep.ratio;
      check_false "no nan in the csv"
        (contains (String.lowercase_ascii (W.Report.runs_to_csv [ run ])) "nan"))
    W.Instances.default_models

let test_batch_shape () =
  let runs =
    batch
      (W.Instances.One_two { p_one = 0.5 })
      ~ns:[ 5; 6 ] ~alphas:[ 0.4; 2.0 ] ~seeds:[ 1; 2 ]
  in
  Alcotest.(check int) "cartesian size" 8 (List.length runs);
  let fraction = W.Sweep.converged_fraction runs in
  check_true "fraction in [0,1]" (fraction >= 0.0 && fraction <= 1.0);
  List.iter
    (fun (r : W.Sweep.run) -> check_true "stretch sane" (r.stretch >= 1.0 -. 1e-9))
    (List.filter (fun (r : W.Sweep.run) -> r.converged) runs)

let test_structured_output () =
  let runs =
    batch
      (W.Instances.Tree { wmin = 1.0; wmax = 5.0 })
      ~ns:[ 5 ] ~alphas:[ 1.0 ] ~seeds:[ 1; 2 ]
  in
  let csv = W.Report.runs_to_csv runs in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv: header + one line per run" 3 (List.length lines);
  check_true "csv header"
    (String.length (List.hd lines) > 0 && String.sub (List.hd lines) 0 5 = "model");
  List.iter
    (fun l ->
      Alcotest.(check int) "csv arity" 12
        (List.length (String.split_on_char ',' l)))
    lines;
  let json = W.Report.runs_to_json runs in
  check_true "json array" (json.[0] = '[' && json.[String.length json - 1] = ']');
  check_true "json has fields"
    (String.length json > 2
    && List.for_all
         (fun needle ->
           let rec contains i =
             i + String.length needle <= String.length json
             && (String.sub json i (String.length needle) = needle || contains (i + 1))
           in
           contains 0)
         [ "\"model\""; "\"ratio\""; "\"is_tree\"" ])

let test_empty_sweep_guards () =
  (* Aggregations over an empty sweep must stay total: [] in, neutral
     values out, never NaN or a raise. *)
  Alcotest.(check (list (float 0.))) "ratios of [] is []" []
    (W.Sweep.ratios []);
  Alcotest.(check (float 0.)) "converged_fraction of [] is 0" 0.0
    (W.Sweep.converged_fraction []);
  check_false "converged_fraction of [] is not NaN"
    (Float.is_nan (W.Sweep.converged_fraction []))

let test_json_nonfinite_roundtrip () =
  (* Runs that diverged (or have an unknown OPT) carry NaN/infinite
     fields; runs_to_json must emit null there so the payload stays
     parseable by any strict JSON reader. *)
  let base =
    List.hd
      (batch
         (W.Instances.Tree { wmin = 1.0; wmax = 5.0 })
         ~ns:[ 5 ] ~alphas:[ 1.0 ] ~seeds:[ 1 ])
  in
  let broken =
    { base with W.Sweep.ratio = Float.nan; diameter = Float.infinity;
      stretch = Float.neg_infinity }
  in
  match Gncg_runs.Json.parse (W.Report.runs_to_json [ broken; base ]) with
  | Error e -> Alcotest.failf "runs_to_json produced unparseable JSON: %s" e
  | Ok (Gncg_runs.Json.List [ b; ok ]) ->
    let field name v =
      match Gncg_runs.Json.member name v with
      | Ok j -> j
      | Error e -> Alcotest.failf "missing %s: %s" name e
    in
    List.iter
      (fun name ->
        match field name b with
        | Gncg_runs.Json.Null -> ()
        | _ -> Alcotest.failf "non-finite %s did not render as null" name)
      [ "ratio"; "diameter"; "stretch" ];
    (match field "ratio" ok with
    | Gncg_runs.Json.Num x -> check_true "finite ratio preserved" (Float.is_finite x)
    | _ -> Alcotest.fail "finite ratio should stay a number");
    (match field "n" ok with
    | Gncg_runs.Json.Num x -> check_float "n survives" (float_of_int base.W.Sweep.n) x
    | _ -> Alcotest.fail "n should be a number")
  | Ok _ -> Alcotest.fail "expected a two-element JSON array"

let test_report_renders () =
  let runs =
    batch
      (W.Instances.Tree { wmin = 1.0; wmax = 5.0 })
      ~ns:[ 5 ] ~alphas:[ 1.0 ] ~seeds:[ 1 ]
  in
  (* Smoke: the printers must not raise. *)
  W.Report.print_runs runs;
  W.Report.print_ratio_summary ~group_label:"model" [ ("tree", runs) ]

let suites =
  [
    ( "workload",
      [
        case "models produce valid hosts" test_models_produce_valid_hosts;
        case "random profiles connected & affordable" test_random_profile_connected;
        case "model names distinct" test_model_names_distinct;
        case "dynamics run record" test_dynamics_run_record;
        case "one-agent ratio" test_one_agent_ratio;
        case "batch shape" test_batch_shape;
        case "empty sweep guards" test_empty_sweep_guards;
        case "json: non-finite fields are null" test_json_nonfinite_roundtrip;
        case "report rendering" test_report_renders;
        case "csv & json output" test_structured_output;
      ] );
  ]
