open Helpers
module G = Gncg_graph.Generators
module Wgraph = Gncg_graph.Wgraph
module Conn = Gncg_graph.Connectivity

let test_random_tree () =
  let r = rng 1300 in
  for _ = 1 to 5 do
    let g = G.random_tree r ~n:20 ~wmin:1.0 ~wmax:3.0 in
    check_true "is a tree" (Conn.is_tree g)
  done

let test_gnp_connected () =
  let r = rng 1301 in
  for _ = 1 to 5 do
    let g = G.gnp_connected r ~n:15 ~p:0.1 ~wmin:1.0 ~wmax:2.0 in
    check_true "connected" (Conn.is_connected g)
  done

let test_gnp_density () =
  let r = rng 1302 in
  let g0 = G.gnp_connected r ~n:30 ~p:0.0 ~wmin:1.0 ~wmax:2.0 in
  check_true "p=0 spanning tree" (Conn.is_tree g0);
  let g1 = G.gnp_connected r ~n:30 ~p:1.0 ~wmin:1.0 ~wmax:2.0 in
  Alcotest.(check int) "p=1 complete" (30 * 29 / 2) (Wgraph.m g1)

let test_net_stats () =
  let host = Gncg.Host.make ~alpha:1.0 (Gncg_metric.Metric.make 4 (fun _ _ -> 1.0)) in
  let s = Gncg.Strategy.star 4 ~center:0 in
  let st = Gncg.Net_stats.of_profile host s in
  Alcotest.(check int) "m" 3 st.Gncg.Net_stats.m;
  check_true "tree" st.Gncg.Net_stats.is_tree;
  check_float "diameter" 2.0 st.Gncg.Net_stats.diameter;
  check_float "avg degree" 1.5 st.Gncg.Net_stats.avg_degree;
  Alcotest.(check int) "max degree" 3 st.Gncg.Net_stats.max_degree;
  check_float "stretch" 2.0 st.Gncg.Net_stats.stretch;
  Alcotest.(check int) "row arity" (List.length Gncg.Net_stats.header)
    (List.length (Gncg.Net_stats.row st))

let suites =
  [
    ( "graph.generators",
      [
        case "random tree" test_random_tree;
        case "gnp connected" test_gnp_connected;
        case "gnp density extremes" test_gnp_density;
      ] );
    ("game.net-stats", [ case "star stats" test_net_stats ]);
  ]
