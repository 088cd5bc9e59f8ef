open Helpers
module Metric = Gncg_metric.Metric
module Host = Gncg.Host
module Strategy = Gncg.Strategy
module Network = Gncg.Network
module Cost = Gncg.Cost
module Move = Gncg.Move
module ISet = Gncg.Strategy.ISet

let unit_host n = Host.make ~alpha:1.0 (Metric.make n (fun _ _ -> 1.0))

let line_host alpha =
  (* 3 collinear points at 0, 1, 3. *)
  Host.make ~alpha (Gncg_metric.Euclidean.metric L1 (Gncg_metric.Euclidean.line [ 0.0; 1.0; 3.0 ]))

(* --- Host ---------------------------------------------------------------- *)

let test_host_basics () =
  let h = line_host 2.0 in
  Alcotest.(check int) "n" 3 (Host.n h);
  check_float "alpha" 2.0 (Host.alpha h);
  check_float "weight" 2.0 (Host.weight h 1 2);
  Alcotest.check_raises "alpha must be positive"
    (Invalid_argument "Host.make: alpha must be positive and finite") (fun () ->
      ignore (Host.make ~alpha:0.0 (Metric.make 2 (fun _ _ -> 1.0))))

(* --- Strategy ------------------------------------------------------------ *)

let test_strategy_buy_sell () =
  let s = Strategy.empty 4 in
  let s = Strategy.buy s 0 1 in
  let s = Strategy.buy s 0 2 in
  check_true "owns" (Strategy.owns s 0 1);
  check_false "directional" (Strategy.owns s 1 0);
  check_true "edge exists" (Strategy.edge_in_network s 1 0);
  Alcotest.(check int) "out degree" 2 (Strategy.out_degree s 0);
  let s = Strategy.sell s 0 1 in
  check_false "sold" (Strategy.owns s 0 1)

let test_strategy_immutability () =
  let s = Strategy.empty 3 in
  let s' = Strategy.buy s 0 1 in
  check_false "original untouched" (Strategy.owns s 0 1);
  check_true "updated owns" (Strategy.owns s' 0 1)

let test_strategy_validation () =
  let s = Strategy.empty 3 in
  Alcotest.check_raises "self purchase"
    (Invalid_argument "Strategy.buy: agent 0 buying towards itself") (fun () ->
      ignore (Strategy.buy s 0 0))

let test_strategy_double_bought () =
  let s = Strategy.of_lists 3 [ (0, [ 1 ]); (1, [ 0; 2 ]) ] in
  Alcotest.(check (list (pair int int))) "double bought" [ (0, 1) ] (Strategy.double_bought s)

let test_strategy_canonical_key () =
  let a = Strategy.of_lists 3 [ (0, [ 1; 2 ]) ] in
  let b = Strategy.of_lists 3 [ (0, [ 2; 1 ]) ] in
  let c = Strategy.of_lists 3 [ (1, [ 0; 2 ]) ] in
  Alcotest.(check string) "order-insensitive" (Strategy.canonical_key a) (Strategy.canonical_key b);
  check_true "distinct profiles differ"
    (Strategy.canonical_key a <> Strategy.canonical_key c);
  check_true "equal" (Strategy.equal a b);
  check_false "not equal" (Strategy.equal a c)

let test_strategy_star_and_tree () =
  let s = Strategy.star 4 ~center:2 in
  Alcotest.(check int) "center degree" 3 (Strategy.out_degree s 2);
  Alcotest.(check int) "leaf degree" 0 (Strategy.out_degree s 0);
  let g = Gncg_graph.Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (1, 3, 1.0) ] in
  let t = Strategy.of_tree_leaf_owned g 1 in
  check_true "leaf owns towards root" (Strategy.owns t 0 1);
  check_true "other leaf too" (Strategy.owns t 3 1);
  Alcotest.(check int) "root owns nothing" 0 (Strategy.out_degree t 1)

(* --- Network & Cost ------------------------------------------------------ *)

let test_network_build () =
  let h = line_host 1.0 in
  let s = Strategy.of_lists 3 [ (0, [ 1 ]); (2, [ 1 ]) ] in
  let g = Network.graph h s in
  Alcotest.(check int) "edges" 2 (Gncg_graph.Wgraph.m g);
  check_float "weight from host" 2.0 (Option.get (Gncg_graph.Wgraph.weight g 1 2));
  check_true "connected" (Network.is_connected h s);
  check_float "diameter" 3.0 (Network.diameter h s)

let test_network_double_buy_collapses () =
  let h = unit_host 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  Alcotest.(check int) "one edge in graph" 1 (Gncg_graph.Wgraph.m (Network.graph h s))

let test_agent_cost () =
  let h = line_host 2.0 in
  (* Path 0-1-2; 0 owns (0,1), 1 owns (1,2). *)
  let s = Strategy.of_lists 3 [ (0, [ 1 ]); (1, [ 2 ]) ] in
  check_float "edge cost agent0" (2.0 *. 1.0) (Cost.agent_edge_cost h s 0);
  check_float "dist cost agent0" (1.0 +. 3.0) (Cost.agent_parts h s 0).Cost.dist;
  check_float "cost agent0" 6.0 (Cost.agent_cost h s 0);
  check_float "cost agent1" ((2.0 *. 2.0) +. 1.0 +. 2.0) (Cost.agent_cost h s 1);
  check_float "cost agent2" (2.0 +. 3.0) (Cost.agent_cost h s 2)

let test_social_cost_decomposition () =
  let h = line_host 2.0 in
  let s = Strategy.of_lists 3 [ (0, [ 1 ]); (1, [ 2 ]) ] in
  let parts = Cost.social_parts h s in
  check_float "edge part" (2.0 *. (1.0 +. 2.0)) parts.Cost.edge;
  check_float "dist part" (2.0 *. (1.0 +. 2.0 +. 3.0)) parts.Cost.dist;
  check_float "total" (Cost.social_cost h s) (parts.Cost.edge +. parts.Cost.dist)

let test_double_buy_charged_twice () =
  let h = unit_host 2 in
  let single = Strategy.of_lists 2 [ (0, [ 1 ]) ] in
  let double = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  check_float "single pays once" (1.0 +. 2.0) (Cost.social_cost h single);
  check_float "double pays twice" (2.0 +. 2.0) (Cost.social_cost h double)

let test_disconnected_cost_infinite () =
  let h = unit_host 3 in
  let s = Strategy.of_lists 3 [ (0, [ 1 ]) ] in
  check_true "agent cost inf" (Cost.agent_cost h s 0 = Float.infinity);
  check_true "social cost inf" (Cost.social_cost h s = Float.infinity)

let test_network_social_cost_matches_profile () =
  let r = rng 90 in
  for _ = 1 to 5 do
    let m = Gncg_metric.Random_host.uniform_metric r ~n:8 ~lo:1.0 ~hi:5.0 in
    let h = Host.make ~alpha:1.7 m in
    let s = Gncg_constructions.Brcycle.random_profile r h in
    (* When no edge is double-bought, the network view and the profile view
       of social cost must agree. *)
    if Strategy.double_bought s = [] then
      check_float ~tol:1e-6 "views agree" (Cost.social_cost h s)
        (Cost.network_social_cost h (Network.graph h s))
  done

(* --- Moves ---------------------------------------------------------------- *)

let test_move_apply () =
  let s = Strategy.of_lists 3 [ (0, [ 1 ]) ] in
  let s1 = Move.apply s ~agent:0 (Move.Add 2) in
  check_true "added" (Strategy.owns s1 0 2);
  let s2 = Move.apply s ~agent:0 (Move.Delete 1) in
  check_false "deleted" (Strategy.owns s2 0 1);
  let s3 = Move.apply s ~agent:0 (Move.Swap (1, 2)) in
  check_false "swap removed old" (Strategy.owns s3 0 1);
  check_true "swap added new" (Strategy.owns s3 0 2)

let test_move_apply_invalid () =
  let s = Strategy.of_lists 3 [ (0, [ 1 ]) ] in
  Alcotest.check_raises "add owned" (Invalid_argument "Move.apply: already owned") (fun () ->
      ignore (Move.apply s ~agent:0 (Move.Add 1)));
  Alcotest.check_raises "delete unowned" (Invalid_argument "Move.apply: not owned") (fun () ->
      ignore (Move.apply s ~agent:0 (Move.Delete 2)))

let test_move_candidates () =
  let h = unit_host 4 in
  let s = Strategy.of_lists 4 [ (0, [ 1 ]); (2, [ 0 ]) ] in
  let moves = Move.candidates h s ~agent:0 in
  (* Agent 0: owns {1}; edge (0,2) exists via 2.  Adds: only 3.  Deletes: 1.
     Swaps: 1=>3. *)
  let adds = List.filter (function Move.Add _ -> true | _ -> false) moves in
  let dels = List.filter (function Move.Delete _ -> true | _ -> false) moves in
  let swaps = List.filter (function Move.Swap _ -> true | _ -> false) moves in
  Alcotest.(check int) "adds" 1 (List.length adds);
  Alcotest.(check int) "deletes" 1 (List.length dels);
  Alcotest.(check int) "swaps" 1 (List.length swaps);
  check_true "add target is 3" (List.mem (Move.Add 3) adds)

let test_move_candidates_kinds () =
  let h = unit_host 4 in
  let s = Strategy.of_lists 4 [ (0, [ 1 ]) ] in
  let only_adds = Move.candidates ~kinds:[ `Add ] h s ~agent:0 in
  check_true "only adds"
    (List.for_all (function Move.Add _ -> true | _ -> false) only_adds)

let test_move_infinite_weight_excluded () =
  let m = Gncg_metric.One_inf.of_allowed_edges 3 [ (0, 1); (1, 2) ] in
  let h = Host.make ~alpha:1.0 m in
  let s = Strategy.empty 3 in
  let moves = Move.candidates h s ~agent:0 in
  check_false "forbidden edge not addable" (List.mem (Move.Add 2) moves);
  check_true "allowed edge addable" (List.mem (Move.Add 1) moves)

let suites =
  [
    ("game.host", [ case "basics" test_host_basics ]);
    ( "game.strategy",
      [
        case "buy/sell" test_strategy_buy_sell;
        case "immutability" test_strategy_immutability;
        case "validation" test_strategy_validation;
        case "double bought" test_strategy_double_bought;
        case "canonical key" test_strategy_canonical_key;
        case "star & tree orientation" test_strategy_star_and_tree;
      ] );
    ( "game.cost",
      [
        case "network build" test_network_build;
        case "double buy collapses in graph" test_network_double_buy_collapses;
        case "agent cost" test_agent_cost;
        case "social decomposition" test_social_cost_decomposition;
        case "double buy charged twice" test_double_buy_charged_twice;
        case "disconnected infinite" test_disconnected_cost_infinite;
        case "network vs profile views" test_network_social_cost_matches_profile;
      ] );
    ( "game.moves",
      [
        case "apply" test_move_apply;
        case "invalid moves rejected" test_move_apply_invalid;
        case "candidates" test_move_candidates;
        case "kinds filter" test_move_candidates_kinds;
        case "infinite weights excluded" test_move_infinite_weight_excluded;
      ] );
  ]

let _ = ISet.empty
