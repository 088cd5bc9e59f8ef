open Helpers
module C = Gncg_constructions
module Eq = Gncg.Equilibrium
module Cost = Gncg.Cost
module Metric = Gncg_metric.Metric

(* --- Thm 8 (Fig 3) ------------------------------------------------------- *)

let test_thm8_alpha_one_ne () =
  let host = C.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:2 ~nb_leaves:2 in
  let ne = C.Thm8_onetwo.ne_profile Alpha_one ~nb_centers:2 ~nb_leaves:2 in
  check_true "NE (exact check)" (Eq.is_ne host ne)

let test_thm8_alpha_mid_ne () =
  List.iter
    (fun alpha ->
      let host = C.Thm8_onetwo.host Alpha_mid ~alpha ~nb_centers:2 ~nb_leaves:2 in
      let ne = C.Thm8_onetwo.ne_profile Alpha_mid ~nb_centers:2 ~nb_leaves:2 in
      check_true "NE (exact check)" (Eq.is_ne host ne))
    [ 0.5; 0.7; 0.99 ]

let test_thm8_ge_scales () =
  (* Exact NE checks explode with size; greedy stability still holds at
     moderate sizes and is implied by the theorem. *)
  let host = C.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:4 ~nb_leaves:4 in
  let ne = C.Thm8_onetwo.ne_profile Alpha_one ~nb_centers:4 ~nb_leaves:4 in
  check_true "GE at N=4" (Eq.is_ge host ne)

let test_thm8_ratio_approaches_limit () =
  (* Ratio grows towards 3/2 (alpha=1) as N grows. *)
  let ratio nb =
    let host = C.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:nb ~nb_leaves:nb in
    let ne = C.Thm8_onetwo.ne_profile Alpha_one ~nb_centers:nb ~nb_leaves:nb in
    let opt = C.Thm8_onetwo.opt_network Alpha_one ~nb_centers:nb ~nb_leaves:nb in
    Cost.social_cost host ne /. Cost.network_social_cost host opt
  in
  let r3 = ratio 3 and r6 = ratio 6 in
  check_true "monotone towards 3/2" (r6 > r3);
  check_true "bounded by limit" (r6 < 1.5);
  check_true "beyond 1.2 already at N=6" (r6 > 1.2)

let test_thm8_opt_is_optimal_alpha_one () =
  (* For alpha = 1 the 1-edge subgraph is the claimed social optimum; at
     N=2 it can be cross-checked against... 7 vertices = 21 host edges, too
     many for exhaustive search, so check local optimality instead: no
     single edge addition or removal improves it. *)
  let host = C.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:2 ~nb_leaves:2 in
  let opt = C.Thm8_onetwo.opt_network Alpha_one ~nb_centers:2 ~nb_leaves:2 in
  let base = Cost.network_social_cost host opt in
  let heur, heur_cost = Gncg.Social_optimum.greedy_heuristic host in
  ignore heur;
  check_true "1-edge subgraph no worse than heuristic" (base <= heur_cost +. 1e-6)

(* --- Thm 15 (Fig 6) ------------------------------------------------------ *)

let test_thm15_ne_exact () =
  List.iter
    (fun (alpha, n) ->
      let host = C.Thm15_tree_star.host ~alpha ~n in
      let ne = C.Thm15_tree_star.ne_profile ~alpha ~n in
      check_true "star NE (exact)" (Eq.is_ne host ne))
    [ (1.0, 5); (2.0, 6); (4.0, 7); (8.0, 5) ]

let test_thm15_cost_formulas () =
  List.iter
    (fun (alpha, n) ->
      let host = C.Thm15_tree_star.host ~alpha ~n in
      let ne = C.Thm15_tree_star.ne_profile ~alpha ~n in
      let opt = C.Thm15_tree_star.opt_network ~alpha ~n in
      check_float ~tol:1e-6 "NE cost formula"
        (C.Thm15_tree_star.ne_cost_formula ~alpha ~n)
        (Cost.social_cost host ne);
      check_float ~tol:1e-6 "OPT cost formula"
        (C.Thm15_tree_star.opt_cost_formula ~alpha ~n)
        (Cost.network_social_cost host opt))
    [ (1.0, 5); (3.0, 8); (6.0, 12) ]

let test_thm15_tree_is_ne_and_opt () =
  (* Cor 3: the defining tree is both OPT and (with leaf-owned edges) NE. *)
  let alpha = 2.0 and n = 6 in
  let host = C.Thm15_tree_star.host ~alpha ~n in
  let tree_graph = C.Thm15_tree_star.opt_network ~alpha ~n in
  let tree_profile = Gncg.Strategy.of_tree_leaf_owned tree_graph 0 in
  check_true "tree profile NE" (Eq.is_ne host tree_profile);
  let _, exact = Gncg.Social_optimum.exact_small host in
  check_float ~tol:1e-6 "tree is social optimum" exact
    (Cost.network_social_cost host tree_graph)

let test_thm15_ratio_approaches_limit () =
  let alpha = 6.0 in
  let limit = C.Thm15_tree_star.ratio_limit ~alpha in
  let ratio n =
    C.Thm15_tree_star.ne_cost_formula ~alpha ~n /. C.Thm15_tree_star.opt_cost_formula ~alpha ~n
  in
  check_true "increasing" (ratio 64 > ratio 8);
  check_true "below limit" (ratio 256 < limit);
  check_true "close to limit at n=256" (limit -. ratio 256 < 0.1)

(* --- Thm 12: tree-metric NE are trees ------------------------------------ *)

let test_thm12_ne_is_tree () =
  let r = rng 700 in
  let checked = ref 0 in
  for _ = 1 to 8 do
    let tree = Gncg_metric.Tree_metric.random r ~n:6 ~wmin:1.0 ~wmax:4.0 in
    let host = Gncg.Host.make ~alpha:(0.5 +. Gncg_util.Prng.float r 3.0)
                 (Gncg_metric.Tree_metric.metric tree) in
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:400 Gncg.Dynamics.Best_response Gncg.Dynamics.Round_robin)
      host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      incr checked;
      check_true "NE on tree metric is a tree"
        (Gncg_graph.Connectivity.is_tree (Gncg.Network.graph host profile))
    | _ -> ()
  done;
  check_true "some dynamics converged" (!checked > 0)

(* --- Lemma 8 / Thm 18 / Thm 19 ------------------------------------------- *)

let test_lemma8_ne_exact () =
  List.iter
    (fun (alpha, n) ->
      let host = C.Lemma8_path.host ~alpha ~n in
      let ne = C.Lemma8_path.ne_profile ~alpha ~n in
      check_true "path-star NE" (Eq.is_ne host ne))
    [ (1.0, 4); (2.0, 5); (4.0, 6) ]

let test_lemma8_positions_geometric () =
  let alpha = 2.0 in
  let pos = Array.of_list (C.Lemma8_path.positions ~alpha ~n:5) in
  check_float "v0" 0.0 pos.(0);
  check_float "v1" 1.0 pos.(1);
  (* v_i = (1 + 2/alpha)^(i-1) = 2^(i-1) at alpha = 2. *)
  check_float "v3" 4.0 pos.(3);
  check_float "v5" 16.0 pos.(5)

let test_lemma8_poa_above_one () =
  let alpha = 2.0 and n = 10 in
  let host = C.Lemma8_path.host ~alpha ~n in
  let ne = C.Lemma8_path.ne_profile ~alpha ~n in
  let opt = C.Lemma8_path.opt_network ~alpha ~n in
  let ratio =
    Cost.social_cost host ne /. Cost.network_social_cost host opt
  in
  check_true "PoA > 1 witness" (ratio > 1.0)

let test_thm18_formula_and_ne () =
  List.iter
    (fun alpha ->
      let host = C.Thm18_fourpoint.host ~alpha in
      let ne = C.Thm18_fourpoint.ne_profile ~alpha in
      check_true "4-point star NE" (Eq.is_ne host ne);
      let ratio =
        Cost.social_cost host ne
        /. Cost.network_social_cost host (C.Thm18_fourpoint.opt_network ~alpha)
      in
      check_float ~tol:1e-6 "matches closed form" (C.Thm18_fourpoint.ratio_formula ~alpha) ratio)
    [ 0.5; 1.0; 2.0; 5.0 ]

let test_thm18_formula_limits () =
  (* The closed form tends to 3 as alpha grows and exceeds 1 everywhere. *)
  check_true "above 1" (Gncg.Quality.fourpoint_lower 0.1 > 1.0);
  check_true "approaches 3" (Float.abs (Gncg.Quality.fourpoint_lower 1e7 -. 3.0) < 1e-4)

let test_thm19_ne_and_formula () =
  List.iter
    (fun (alpha, d) ->
      let host = C.Thm19_cross.host ~alpha ~d in
      let ne = C.Thm19_cross.ne_profile ~alpha ~d in
      check_true "cross star NE" (Eq.is_ne host ne);
      let ratio =
        Cost.social_cost host ne
        /. Cost.network_social_cost host (C.Thm19_cross.opt_network ~alpha ~d)
      in
      check_float ~tol:1e-6 "matches closed form" (C.Thm19_cross.ratio_formula ~alpha ~d) ratio)
    [ (1.0, 1); (3.0, 2); (2.0, 3) ]

let test_thm19_limit_is_metric_upper () =
  (* As d -> infinity the bound tends to 1 + alpha/2 = (alpha+2)/2. *)
  let alpha = 5.0 in
  let inf_d = Gncg.Quality.cross_lower ~alpha ~d:100000 in
  check_true "approaches (a+2)/2"
    (Float.abs (inf_d -. Gncg.Quality.metric_upper alpha) < 1e-3)

let test_thm19_points_isometric_to_thm15 () =
  (* The l1 cross on 2d+1 points embeds the Thm 15 star host with
     n = 2d+1: same weight matrix. *)
  let alpha = 2.0 and d = 3 in
  let cross = Gncg.Host.metric (C.Thm19_cross.host ~alpha ~d) in
  let star = Gncg.Host.metric (C.Thm15_tree_star.host ~alpha ~n:(2 * d + 1)) in
  (* Vertex naming matches: 0 <-> center u, 1 <-> special leaf v. *)
  check_true "same host metric" (Metric.equal ~tol:1e-9 cross star)

(* --- Thm 14 / Thm 17: stored improving-move cycles ------------------------ *)

let test_fig5_like_cycle () =
  let host, cycle = C.Brcycle.fig5_like_instance () in
  Alcotest.(check int) "four moves (as in Fig 5)" 5 (List.length cycle);
  check_true "certificate verifies" (C.Brcycle.verify_cycle host cycle);
  check_true "host is a tree metric"
    (Gncg_metric.Tree_metric.is_tree_metric (Gncg.Host.metric host))

let test_fig8_cycle () =
  let host, cycle = C.Brcycle.fig8_cycle () in
  Alcotest.(check int) "eight moves" 9 (List.length cycle);
  check_true "certificate verifies" (C.Brcycle.verify_cycle host cycle);
  (* The host really is the Fig 8 point set under l1. *)
  check_true "host matches the Fig 8 points"
    (Metric.equal (Gncg.Host.metric host)
       (Gncg_metric.Euclidean.metric L1
          (Gncg_metric.Euclidean.of_list
             [
               [ 3.0; 0.0 ]; [ 0.0; 3.0 ]; [ 2.0; 2.0 ]; [ 0.0; 2.0 ]; [ 1.0; 1.0 ];
               [ 4.0; 3.0 ]; [ 2.0; 0.0 ]; [ 4.0; 1.0 ]; [ 1.0; 4.0 ]; [ 1.0; 0.0 ];
             ])))

let test_verify_cycle_rejects_bad_certificates () =
  let host, cycle = C.Brcycle.fig5_like_instance () in
  (* Not a cycle: drop the closing state. *)
  check_false "open path rejected"
    (C.Brcycle.verify_cycle host (List.filteri (fun i _ -> i < List.length cycle - 1) cycle));
  (* Reversed: every move becomes strictly worsening. *)
  check_false "reversed cycle rejected" (C.Brcycle.verify_cycle host (List.rev cycle));
  (* Degenerate. *)
  check_false "singleton rejected" (C.Brcycle.verify_cycle host [ List.hd cycle ])

(* --- Thm 20 example ------------------------------------------------------- *)

let test_thm20_gap () =
  List.iter
    (fun alpha ->
      (match C.Thm20_cycle.ne_profile ~alpha with
      | Some s -> check_true "heavy path is NE" (Eq.is_ne (C.Thm20_cycle.host ~alpha) s)
      | None -> Alcotest.fail "no NE ownership for heavy path");
      check_float ~tol:1e-9 "sigma = ((a+2)/2)^2"
        (Gncg.Quality.general_upper alpha)
        (C.Thm20_cycle.sigma_heavy_pair ~alpha);
      check_float ~tol:1e-9 "cost ratio = (a+2)/2"
        (Gncg.Quality.metric_upper alpha)
        (C.Thm20_cycle.cost_ratio ~alpha))
    [ 1.0; 2.0; 4.0 ]

let test_thm20_host_not_metric () =
  check_false "host violates the triangle inequality / positivity"
    (Metric.is_metric (Gncg.Host.metric (C.Thm20_cycle.host ~alpha:2.0)))

(* --- Thm 1: metric upper bound on found equilibria ------------------------ *)

let test_thm1_upper_bound_on_constructions () =
  (* Every metric equilibrium we construct must respect PoA <= (a+2)/2. *)
  let checks = ref [] in
  List.iter
    (fun alpha ->
      let host = C.Thm15_tree_star.host ~alpha ~n:7 in
      let ne = C.Thm15_tree_star.ne_profile ~alpha ~n:7 in
      let opt = C.Thm15_tree_star.opt_network ~alpha ~n:7 in
      checks :=
        (alpha, Cost.social_cost host ne /. Cost.network_social_cost host opt) :: !checks)
    [ 0.5; 1.0; 2.0; 4.0; 8.0 ];
  List.iter
    (fun (alpha, ratio) ->
      check_true "ratio <= (a+2)/2" (ratio <= Gncg.Quality.metric_upper alpha +. 1e-9))
    !checks

let suites =
  [
    ( "constructions.thm8",
      [
        case "alpha=1 NE (exact)" test_thm8_alpha_one_ne;
        case "alpha in [1/2,1) NE (exact)" test_thm8_alpha_mid_ne;
        slow_case "GE at larger size" test_thm8_ge_scales;
        case "ratio approaches 3/2" test_thm8_ratio_approaches_limit;
        case "1-edge subgraph quality" test_thm8_opt_is_optimal_alpha_one;
      ] );
    ( "constructions.thm15",
      [
        case "star NE (exact)" test_thm15_ne_exact;
        case "cost formulas" test_thm15_cost_formulas;
        case "Cor 3: tree NE and OPT" test_thm15_tree_is_ne_and_opt;
        case "ratio approaches (a+2)/2" test_thm15_ratio_approaches_limit;
      ] );
    ("constructions.thm12", [ case "tree-metric NE are trees" test_thm12_ne_is_tree ]);
    ( "constructions.fip-cycles",
      [
        case "Thm 14: fig5-like tree cycle" test_fig5_like_cycle;
        case "Thm 17: fig8 cycle" test_fig8_cycle;
        case "verifier rejects bad certificates" test_verify_cycle_rejects_bad_certificates;
      ] );
    ( "constructions.geometric",
      [
        case "Lemma 8: star NE" test_lemma8_ne_exact;
        case "Lemma 8: geometric positions" test_lemma8_positions_geometric;
        case "Lemma 8: PoA > 1" test_lemma8_poa_above_one;
        case "Thm 18: NE & closed form" test_thm18_formula_and_ne;
        case "Thm 18: formula limits" test_thm18_formula_limits;
        case "Thm 19: NE & closed form" test_thm19_ne_and_formula;
        case "Thm 19: limit = (a+2)/2" test_thm19_limit_is_metric_upper;
        case "Thm 19 embeds Thm 15" test_thm19_points_isometric_to_thm15;
      ] );
    ( "constructions.thm20",
      [
        case "gap example" test_thm20_gap;
        case "host is non-metric" test_thm20_host_not_metric;
      ] );
    ( "constructions.thm1",
      [ case "metric upper bound holds" test_thm1_upper_bound_on_constructions ] );
  ]
