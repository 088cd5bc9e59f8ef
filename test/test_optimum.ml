open Helpers
module Prng = Gncg_util.Prng
module Opt = Gncg.Social_optimum
module Host = Gncg.Host
module Metric = Gncg_metric.Metric

let test_exact_small_unit_clique () =
  (* On a unit-weight clique with alpha < 2 the optimum is the complete
     graph iff adding any edge saves 2 in distance and costs alpha. *)
  let host = Host.make ~alpha:1.0 (Metric.make 4 (fun _ _ -> 1.0)) in
  let g, cost = Opt.exact_small host in
  Alcotest.(check int) "complete graph optimal" 6 (Gncg_graph.Wgraph.m g);
  check_float "cost" ((1.0 *. 6.0) +. 12.0) cost

let test_exact_small_large_alpha_tree () =
  (* With alpha large, OPT must be a spanning tree (edge cost dominates). *)
  let r = rng 500 in
  let m = Gncg_metric.Random_host.uniform_metric r ~n:5 ~lo:1.0 ~hi:2.0 in
  let host = Host.make ~alpha:1000.0 m in
  let g, _ = Opt.exact_small host in
  check_true "tree" (Gncg_graph.Connectivity.is_tree g)

let test_exact_small_guard () =
  let host = Host.make ~alpha:1.0 (Metric.make 8 (fun _ _ -> 1.0)) in
  (* 28 candidate edges > 16: refused. *)
  let raised = ref false in
  (try ignore (Opt.exact_small host) with Invalid_argument _ -> raised := true);
  check_true "guard raises" !raised

let test_algorithm_one_matches_exact () =
  let r = rng 501 in
  for trial = 1 to 10 do
    let n = 5 in
    let m = Gncg_metric.One_two.random r ~n ~p_one:0.5 in
    let alpha = 0.1 +. Prng.float r 0.9 in
    let host = Host.make ~alpha m in
    let _, alg = Opt.algorithm_one host in
    let _, exact = Opt.exact_small host in
    if not (approx ~tol:1e-9 alg exact) then
      Alcotest.failf "trial %d (alpha=%g): alg1=%g exact=%g" trial alpha alg exact
  done

let test_algorithm_one_structure () =
  let m = Gncg_metric.One_two.of_one_edges 3 [ (0, 1); (1, 2) ] in
  let host = Host.make ~alpha:0.5 m in
  let g, _ = Opt.algorithm_one host in
  (* The 2-edge (0,2) closes a 1-1-2 triangle: it must be dropped. *)
  check_false "triangle 2-edge dropped" (Gncg_graph.Wgraph.has_edge g 0 2);
  check_true "1-edges kept" (Gncg_graph.Wgraph.has_edge g 0 1 && Gncg_graph.Wgraph.has_edge g 1 2);
  check_false "no 1-1-2 triangle left"
    (Gncg_metric.One_two.has_one_one_two_triangle m g);
  Alcotest.check_raises "non-1-2 host rejected"
    (Invalid_argument "Social_optimum.algorithm_one: host is not a 1-2 graph") (fun () ->
      ignore (Opt.algorithm_one (Host.make ~alpha:0.5 (Metric.make 3 (fun _ _ -> 3.0)))))

let test_algorithm_one_diameter_two () =
  let r = rng 502 in
  for _ = 1 to 5 do
    let m = Gncg_metric.One_two.random r ~n:10 ~p_one:0.4 in
    let host = Host.make ~alpha:0.8 m in
    let g, _ = Opt.algorithm_one host in
    check_true "diameter 2 (Thm 6)" (Gncg_graph.Dijkstra.diameter g <= 2.0 +. 1e-9)
  done

let test_tree_optimum_matches_exact () =
  let r = rng 503 in
  for _ = 1 to 5 do
    let tree = Gncg_metric.Tree_metric.random r ~n:5 ~wmin:1.0 ~wmax:4.0 in
    let alpha = 0.5 +. Prng.float r 4.0 in
    let host = Host.make ~alpha (Gncg_metric.Tree_metric.metric tree) in
    let _, tree_cost = Opt.tree_optimum tree host in
    let _, exact = Opt.exact_small host in
    check_float ~tol:1e-6 "tree is optimal (Cor 3)" exact tree_cost
  done

let test_tree_optimum_validation () =
  let tree = Gncg_metric.Tree_metric.path [ 1.0; 1.0 ] in
  let other = Host.make ~alpha:1.0 (Metric.make 3 (fun _ _ -> 7.0)) in
  Alcotest.check_raises "host mismatch"
    (Invalid_argument "Social_optimum.tree_optimum: host is not the metric of this tree")
    (fun () -> ignore (Opt.tree_optimum tree other))

let test_heuristic_sound () =
  let r = rng 504 in
  for _ = 1 to 8 do
    let n = 5 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let host = Host.make ~alpha:(0.5 +. Prng.float r 3.0) m in
    let g, heur = Opt.greedy_heuristic host in
    let _, exact = Opt.exact_small host in
    check_true "heuristic connected" (Gncg_graph.Connectivity.is_connected g);
    check_true "heuristic >= exact" (heur >= exact -. 1e-6);
    check_true "heuristic within 2x on these sizes" (heur <= (2.0 *. exact) +. 1e-6)
  done

let test_best_known_dispatch () =
  let host = Host.make ~alpha:1.0 (Metric.make 4 (fun _ _ -> 1.0)) in
  let _, c1 = Opt.best_known host in
  let _, c2 = Opt.exact_small host in
  check_float "small goes exact" c2 c1;
  let big = Host.make ~alpha:1.0 (Metric.make 12 (fun _ _ -> 1.0)) in
  let g, _ = Opt.best_known big in
  check_true "large uses heuristic, connected" (Gncg_graph.Connectivity.is_connected g)

let test_complete_host_cost () =
  let host = Host.make ~alpha:2.0 (Metric.make 3 (fun _ _ -> 1.0)) in
  (* 3 edges at alpha*1 + 6 ordered pairs at distance 1. *)
  check_float "complete cost" (6.0 +. 6.0) (Opt.complete_host_cost host)

let test_bnb_matches_enumeration () =
  let r = rng 507 in
  for trial = 1 to 8 do
    let n = 4 + Prng.int r 3 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let host = Host.make ~alpha:(0.5 +. Prng.float r 4.0) m in
    let _, bnb = Opt.exact_bnb host in
    let _, enum = Opt.exact_small host in
    if not (approx ~tol:1e-6 bnb enum) then
      Alcotest.failf "trial %d: bnb=%g enum=%g" trial bnb enum
  done

let test_bnb_nonmetric_and_one_inf () =
  let r = rng 508 in
  (* Non-metric weights. *)
  let host = Host.make ~alpha:1.5 (Gncg_metric.Random_host.uniform r ~n:5 ~lo:1.0 ~hi:9.0) in
  let _, bnb = Opt.exact_bnb host in
  let _, enum = Opt.exact_small host in
  check_float ~tol:1e-6 "general host" enum bnb;
  (* Forbidden edges: candidates exclude infinite pairs. *)
  let oi = Gncg_metric.One_inf.random_connected r ~n:6 ~p:0.3 in
  let host = Host.make ~alpha:2.0 oi in
  let g, bnb = Opt.exact_bnb host in
  check_true "network uses only allowed edges"
    (List.for_all
       (fun (u, v, _) -> Float.is_finite (Gncg_metric.Metric.weight oi u v))
       (Gncg_graph.Wgraph.edges g));
  check_true "finite cost" (Float.is_finite bnb)

let test_opt_spanner_lemma2 () =
  (* Lemma 2: the social optimum is an (alpha/2 + 1)-spanner. *)
  let r = rng 505 in
  for _ = 1 to 8 do
    let n = 5 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let alpha = 0.5 +. Prng.float r 4.0 in
    let host = Host.make ~alpha m in
    let g, _ = Opt.exact_small host in
    let stretch = Gncg.Quality.host_stretch host g in
    check_true "OPT is (a/2+1)-spanner" (stretch <= Gncg.Quality.opt_spanner_stretch alpha +. 1e-6)
  done

let suites =
  [
    ( "social-optimum",
      [
        case "exact: unit clique" test_exact_small_unit_clique;
        case "exact: large alpha gives tree" test_exact_small_large_alpha_tree;
        case "exact: size guard" test_exact_small_guard;
        case "Thm 6: algorithm 1 optimal" test_algorithm_one_matches_exact;
        case "algorithm 1 structure" test_algorithm_one_structure;
        case "algorithm 1 diameter 2" test_algorithm_one_diameter_two;
        case "Cor 3: tree optimal" test_tree_optimum_matches_exact;
        case "tree optimum validation" test_tree_optimum_validation;
        case "heuristic sound" test_heuristic_sound;
        case "branch&bound = enumeration" test_bnb_matches_enumeration;
        case "branch&bound on non-metric & 1-inf" test_bnb_nonmetric_and_one_inf;
        case "best_known dispatch" test_best_known_dispatch;
        case "complete host cost" test_complete_host_cost;
        case "Lemma 2: OPT spanner" test_opt_spanner_lemma2;
      ] );
  ]
