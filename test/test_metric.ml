open Helpers
module Metric = Gncg_metric.Metric
module One_two = Gncg_metric.One_two
module Tree_metric = Gncg_metric.Tree_metric
module Euclidean = Gncg_metric.Euclidean
module One_inf = Gncg_metric.One_inf

let test_make_symmetric () =
  let h = Metric.make 3 (fun u v -> float_of_int ((10 * u) + v)) in
  check_float "w(0,1)" 1.0 (Metric.weight h 0 1);
  check_float "w(1,0) symmetric" 1.0 (Metric.weight h 1 0);
  check_float "diagonal" 0.0 (Metric.weight h 2 2)

let test_of_matrix_validation () =
  Alcotest.check_raises "asymmetric rejected" (Invalid_argument "Metric.of_matrix: asymmetric")
    (fun () ->
      ignore (Metric.of_matrix [| [| 0.0; 1.0 |]; [| 2.0; 0.0 |] |]))

let test_is_metric () =
  let good = Metric.make 3 (fun _ _ -> 1.0) in
  check_true "unit clique is metric" (Metric.is_metric good);
  let bad = Metric.of_matrix [| [| 0.; 1.; 5. |]; [| 1.; 0.; 1. |]; [| 5.; 1.; 0. |] |] in
  check_false "triangle violation" (Metric.is_metric bad)

let test_metric_closure () =
  let bad = Metric.of_matrix [| [| 0.; 1.; 5. |]; [| 1.; 0.; 1. |]; [| 5.; 1.; 0. |] |] in
  let closed = Metric.metric_closure bad in
  check_float "shortcut through middle" 2.0 (Metric.weight closed 0 2);
  check_true "closure is metric" (Metric.is_metric closed);
  check_true "closure idempotent" (Metric.equal closed (Metric.metric_closure closed))

let test_closure_below () =
  let r = rng 31 in
  let h = Gncg_metric.Random_host.uniform r ~n:10 ~lo:1.0 ~hi:10.0 in
  let c = Metric.metric_closure h in
  for u = 0 to 9 do
    for v = 0 to 9 do
      check_true "closure pointwise below" (Metric.weight c u v <= Metric.weight h u v +. 1e-9)
    done
  done;
  check_true "closure metric" (Metric.is_metric c)

let test_scale_perturb () =
  let h = Metric.make 4 (fun _ _ -> 2.0) in
  let s = Metric.scale 3.0 h in
  check_float "scaled" 6.0 (Metric.weight s 0 1);
  let r = rng 5 in
  let p = Metric.perturb r ~magnitude:0.1 h in
  let w = Metric.weight p 0 1 in
  check_true "perturbed within band" (w >= 2.0 && w < 2.1)

let test_min_max_weight () =
  let h = Metric.of_matrix [| [| 0.; 1.; 3. |]; [| 1.; 0.; 2. |]; [| 3.; 2.; 0. |] |] in
  check_float "max" 3.0 (Metric.max_finite_weight h)

let test_complete_graph () =
  let h = Metric.make 4 (fun u v -> if (u, v) = (0, 1) then Float.infinity else 1.0) in
  let g = Metric.complete_graph h in
  Alcotest.(check int) "infinite edge skipped" 5 (Gncg_graph.Wgraph.m g)

(* --- 1-2 --------------------------------------------------------------- *)

let test_one_two_always_metric () =
  let r = rng 40 in
  for _ = 1 to 10 do
    let h = One_two.random r ~n:9 ~p_one:0.5 in
    check_true "1-2 is metric" (Metric.is_metric h);
    check_true "recognized" (One_two.is_one_two h)
  done

let test_one_two_edges () =
  let h = One_two.of_one_edges 4 [ (0, 1); (2, 3) ] in
  check_float "one edge" 1.0 (Metric.weight h 0 1);
  check_float "two edge" 2.0 (Metric.weight h 0 2);
  Alcotest.(check (list (pair int int))) "one_edges" [ (0, 1); (2, 3) ] (One_two.one_edges h);
  Alcotest.(check int) "one subgraph size" 2 (Gncg_graph.Wgraph.m (One_two.one_subgraph h))

let test_one_one_two_triangle () =
  let h = One_two.of_one_edges 3 [ (0, 1); (1, 2) ] in
  let g = Metric.complete_graph h in
  check_true "triangle present" (One_two.has_one_one_two_triangle h g);
  Gncg_graph.Wgraph.remove_edge g 0 2;
  check_false "gone after removal" (One_two.has_one_one_two_triangle h g)

(* --- Tree metrics ------------------------------------------------------- *)

let test_tree_validation () =
  Alcotest.check_raises "cycle rejected" (Invalid_argument "Tree_metric.make: edges contain a cycle")
    (fun () -> ignore (Tree_metric.make 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ]));
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Tree_metric.make: a tree on n vertices has n-1 edges") (fun () ->
      ignore (Tree_metric.make 3 [ (0, 1, 1.0) ]))

let test_tree_metric_distances () =
  let t = Tree_metric.path [ 1.0; 2.0; 4.0 ] in
  let h = Tree_metric.metric t in
  check_float "path distance" 7.0 (Metric.weight h 0 3);
  check_float "middle" 6.0 (Metric.weight h 1 3);
  check_true "is metric" (Metric.is_metric h)

let test_four_point_condition () =
  let r = rng 50 in
  for _ = 1 to 5 do
    let t = Tree_metric.random r ~n:8 ~wmin:1.0 ~wmax:5.0 in
    check_true "tree metric satisfies 4-point" (Tree_metric.is_tree_metric (Tree_metric.metric t))
  done;
  (* Points on a circle are a metric but not a tree metric. *)
  let pts =
    Euclidean.of_list
      [ [ 1.0; 0.0 ]; [ 0.0; 1.0 ]; [ -1.0; 0.0 ]; [ 0.0; -1.0 ] ]
  in
  check_false "square is not tree metric" (Tree_metric.is_tree_metric (Euclidean.metric L2 pts))

let test_tree_star_and_random () =
  let s = Tree_metric.star 5 (fun i -> float_of_int i) in
  let h = Tree_metric.metric s in
  check_float "leaf to leaf" 7.0 (Metric.weight h 3 4);
  let r = rng 51 in
  let t = Tree_metric.random r ~n:20 ~wmin:1.0 ~wmax:2.0 in
  check_true "random tree is a tree"
    (Gncg_graph.Connectivity.is_tree (Tree_metric.graph t))

(* --- Euclidean ---------------------------------------------------------- *)

let test_norms () =
  let a = [| 0.0; 0.0 |] and b = [| 3.0; 4.0 |] in
  check_float "l1" 7.0 (Euclidean.dist L1 a b);
  check_float "l2" 5.0 (Euclidean.dist L2 a b);
  check_float "linf" 4.0 (Euclidean.dist Linf a b);
  check_float "lp p=2 equals l2" 5.0 (Euclidean.dist (Lp 2.0) a b);
  check_true "lp monotone in p"
    (Euclidean.dist (Lp 1.5) a b > Euclidean.dist (Lp 3.0) a b)

let test_euclid_metric_properties () =
  let r = rng 60 in
  List.iter
    (fun norm ->
      let pts = Euclidean.random_uniform r ~n:12 ~d:3 ~lo:0.0 ~hi:10.0 in
      check_true "p-norm host is metric" (Metric.is_metric (Euclidean.metric norm pts)))
    [ Euclidean.L1; Euclidean.L2; Euclidean.Lp 3.0; Euclidean.Linf ]

let test_line_and_translate () =
  let pts = Euclidean.line [ 0.0; 1.0; 3.0 ] in
  let h = Euclidean.metric L2 pts in
  check_float "line distance" 3.0 (Metric.weight h 0 2);
  let moved = Array.map (Array.map (fun x -> x +. 5.0)) pts in
  let h2 = Euclidean.metric L2 moved in
  check_true "translation invariant" (Metric.equal h h2)

let test_clusters_shape () =
  let r = rng 61 in
  let pts = Euclidean.random_clusters r ~n:30 ~d:2 ~clusters:3 ~spread:0.5 ~box:100.0 in
  Alcotest.(check int) "count" 30 (Array.length pts);
  Alcotest.(check int) "dim" 2 (Array.length pts.(0))

(* --- 1-inf -------------------------------------------------------------- *)

let test_one_inf () =
  let h = One_inf.of_allowed_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  check_true "recognized" (One_inf.is_one_inf h);
  check_false "not metric (infinite weights)" (Metric.is_metric h);
  check_float "allowed" 1.0 (Metric.weight h 0 1);
  check_true "forbidden" (Metric.weight h 0 3 = Float.infinity)

let test_one_inf_random_connected () =
  let r = rng 70 in
  for _ = 1 to 5 do
    let h = One_inf.random_connected r ~n:10 ~p:0.1 in
    check_true "valid 1-inf" (One_inf.is_one_inf h);
    let g = Metric.complete_graph h in
    check_true "allowed graph connected" (Gncg_graph.Connectivity.is_connected g)
  done

(* --- random hosts ------------------------------------------------------- *)

let test_random_hosts () =
  let r = rng 80 in
  let g = Gncg_metric.Random_host.random_graph_metric r ~n:12 ~p:0.2 ~wmin:1.0 ~wmax:5.0 in
  check_true "graph metric is metric" (Metric.is_metric g);
  let u = Gncg_metric.Random_host.uniform_metric r ~n:12 ~lo:1.0 ~hi:10.0 in
  check_true "uniform closure is metric" (Metric.is_metric u)

let suites =
  [
    ( "metric.core",
      [
        case "make symmetric" test_make_symmetric;
        case "of_matrix validation" test_of_matrix_validation;
        case "is_metric" test_is_metric;
        case "metric closure" test_metric_closure;
        case "closure pointwise below" test_closure_below;
        case "scale & perturb" test_scale_perturb;
        case "min/max weight" test_min_max_weight;
        case "complete graph skips inf" test_complete_graph;
      ] );
    ( "metric.one-two",
      [
        case "always metric" test_one_two_always_metric;
        case "edges" test_one_two_edges;
        case "1-1-2 triangle detection" test_one_one_two_triangle;
      ] );
    ( "metric.tree",
      [
        case "validation" test_tree_validation;
        case "distances" test_tree_metric_distances;
        case "four-point condition" test_four_point_condition;
        case "star and random" test_tree_star_and_random;
      ] );
    ( "metric.euclidean",
      [
        case "norm values" test_norms;
        case "p-norm metric properties" test_euclid_metric_properties;
        case "line & translation" test_line_and_translate;
        case "clusters" test_clusters_shape;
      ] );
    ( "metric.one-inf",
      [ case "basics" test_one_inf; case "random connected" test_one_inf_random_connected ] );
    ("metric.random", [ case "random hosts" test_random_hosts ]);
  ]
