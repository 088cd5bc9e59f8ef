(* Input-validation behaviour across the public API: every guard the
   library documents must actually fire, with its documented message. *)

open Helpers

let raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* --- util ------------------------------------------------------------- *)

let test_prng_guards () =
  let r = rng 1 in
  raises_invalid "sample k>n" (fun () ->
      Gncg_util.Prng.sample_without_replacement r 5 3)

let test_parallel_guards () =
  let exec = Gncg_util.Exec.par ~domains:2 () in
  raises_invalid "negative size" (fun () -> Gncg_util.Exec.init ~exec (-1) (fun i -> i));
  raises_invalid "negative for_all" (fun () -> Gncg_util.Exec.for_all ~exec (-1) (fun _ -> true))

(* A domain count past the runtime's limit (128 domains) makes
   [Domain.spawn] raise partway through the spawns.  The domains already
   spawned must be stopped and joined before that exception reaches the
   caller: no index may run once the call has returned. *)
let test_spawn_failure_joins () =
  let ran = Atomic.make 0 in
  let exec = Gncg_util.Exec.par ~domains:200 () in
  (match
     Gncg_util.Exec.init ~exec 100_000 (fun i ->
         Atomic.incr ran;
         Unix.sleepf 0.001;
         i)
   with
  | _ -> Alcotest.fail "200 domains spawned: the runtime's domain limit was not hit"
  | exception Failure _ -> ());
  let after = Atomic.get ran in
  Unix.sleepf 0.05;
  Alcotest.(check int) "indices run after the call returned" after (Atomic.get ran)

(* --- mgraph ------------------------------------------------------------ *)

let test_wgraph_guards () =
  let g = Gncg_graph.Wgraph.create 3 in
  raises_invalid "vertex range" (fun () -> Gncg_graph.Wgraph.add_edge g 0 7 1.0);
  raises_invalid "nan weight" (fun () -> Gncg_graph.Wgraph.add_edge g 0 1 Float.nan);
  raises_invalid "negative create" (fun () -> Gncg_graph.Wgraph.create (-2))

let test_dijkstra_guards () =
  let g = Gncg_graph.Wgraph.create 3 in
  raises_invalid "source range" (fun () -> Gncg_graph.Dijkstra.sssp g 5)

let test_spanner_guards () =
  raises_invalid "t < 1" (fun () -> Gncg_graph.Spanner.greedy 4 (fun _ _ -> 1.0) 0.5)

let test_dist_matrix_guards () =
  let m = Gncg_graph.Incr_apsp.of_graph (Gncg_graph.Wgraph.create 3) in
  raises_invalid "self loop" (fun () -> ignore (Gncg_graph.Incr_apsp.add_edge m 1 1 1.0));
  raises_invalid "range" (fun () -> ignore (Gncg_graph.Incr_apsp.distance m 0 9));
  raises_invalid "negative weight" (fun () ->
      ignore (Gncg_graph.Incr_apsp.add_edge m 0 1 (-3.0)));
  raises_invalid "total_with_edge_added range" (fun () ->
      ignore (Gncg_graph.Incr_apsp.total_with_edge_added m 0 9 1.0))


let test_generator_guards () =
  let r = rng 2 in
  raises_invalid "random tree n" (fun () ->
      ignore (Gncg_graph.Generators.random_tree r ~n:0 ~wmin:1.0 ~wmax:2.0))

(* --- metric ------------------------------------------------------------- *)

let test_metric_guards () =
  raises_invalid "negative weight" (fun () ->
      ignore (Gncg_metric.Metric.make 3 (fun _ _ -> -1.0)));
  let h = Gncg_metric.Metric.make 3 (fun _ _ -> 1.0) in
  raises_invalid "scale 0" (fun () -> ignore (Gncg_metric.Metric.scale 0.0 h));
  raises_invalid "perturb negative" (fun () ->
      ignore (Gncg_metric.Metric.perturb (rng 3) ~magnitude:(-0.5) h));
  raises_invalid "weight range" (fun () -> ignore (Gncg_metric.Metric.weight h 0 9))

let test_tree_guards () =
  raises_invalid "zero weight edge" (fun () ->
      ignore (Gncg_metric.Tree_metric.make 2 [ (0, 1, 0.0) ]));
  raises_invalid "bad weight range" (fun () ->
      ignore (Gncg_metric.Tree_metric.random (rng 4) ~n:3 ~wmin:2.0 ~wmax:1.0))

let test_euclid_guards () =
  raises_invalid "p < 1" (fun () ->
      ignore (Gncg_metric.Euclidean.dist (Lp 0.5) [| 0.0 |] [| 1.0 |]));
  raises_invalid "dimension mismatch" (fun () ->
      ignore (Gncg_metric.Euclidean.dist L2 [| 0.0 |] [| 1.0; 2.0 |]))

(* --- core ---------------------------------------------------------------- *)

let unit_host n = Gncg.Host.make ~alpha:1.0 (Gncg_metric.Metric.make n (fun _ _ -> 1.0))

let test_host_guards () =
  raises_invalid "infinite alpha" (fun () ->
      ignore (Gncg.Host.make ~alpha:Float.infinity (Gncg_metric.Metric.make 2 (fun _ _ -> 1.0))))

let test_strategy_guards () =
  let s = Gncg.Strategy.empty 3 in
  raises_invalid "target range" (fun () -> ignore (Gncg.Strategy.buy s 0 9));
  raises_invalid "agent range" (fun () -> ignore (Gncg.Strategy.strategy s 5));
  raises_invalid "tree orientation of disconnected graph" (fun () ->
      ignore
        (Gncg.Strategy.of_tree_leaf_owned
           (Gncg_graph.Wgraph.of_edges 4 [ (2, 3, 1.0) ])
           0))

let test_equilibrium_guards () =
  let host = unit_host 2 in
  raises_invalid "NE tracker" (fun () ->
      ignore
        (Gncg.Equilibrium.Tracker.create Gncg.Equilibrium.NE
           (Gncg.Net_state.create host (Gncg.Strategy.empty 2))))

let test_best_response_guards () =
  let host = unit_host 30 in
  raises_invalid "enum too large" (fun () ->
      ignore (Gncg.Best_response.exact_enum host (Gncg.Strategy.empty 30) 0))

let test_optimum_guards () =
  let host = unit_host 9 in
  raises_invalid "bnb too large" (fun () -> ignore (Gncg.Social_optimum.exact_bnb host))

let test_ownership_guards () =
  let host = unit_host 8 in
  let g = Gncg_metric.Metric.complete_graph (Gncg.Host.metric host) in
  raises_invalid "too many edges" (fun () -> ignore (Gncg.Ownership.find_ne host g))

let test_pos_guards () =
  raises_invalid "too many pairs" (fun () ->
      ignore (Gncg.Price_of_stability.enumerate_ne (unit_host 7)))

(* --- constructions -------------------------------------------------------- *)

let test_construction_guards () =
  raises_invalid "thm8 alpha-one wrong alpha" (fun () ->
      ignore
        (Gncg_constructions.Thm8_onetwo.host Alpha_one ~alpha:0.9 ~nb_centers:2 ~nb_leaves:2));
  raises_invalid "thm8 alpha-mid out of range" (fun () ->
      ignore
        (Gncg_constructions.Thm8_onetwo.host Alpha_mid ~alpha:1.0 ~nb_centers:2 ~nb_leaves:2));
  raises_invalid "thm8 tiny" (fun () ->
      ignore (Gncg_constructions.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:1 ~nb_leaves:1));
  raises_invalid "thm15 n < 3" (fun () ->
      ignore (Gncg_constructions.Thm15_tree_star.host ~alpha:1.0 ~n:2));
  raises_invalid "thm19 d < 1" (fun () ->
      ignore (Gncg_constructions.Thm19_cross.host ~alpha:1.0 ~d:0));
  raises_invalid "lemma8 n < 1" (fun () ->
      ignore (Gncg_constructions.Lemma8_path.host ~alpha:1.0 ~n:0));
  raises_invalid "vc bad edge" (fun () ->
      ignore (Gncg_constructions.Vc_reduction.host { nv = 2; es = [ (0, 5) ] }));
  raises_invalid "vc non-cover profile" (fun () ->
      ignore
        (Gncg_constructions.Vc_reduction.profile
           { nv = 3; es = [ (0, 1); (1, 2) ] }
           ~cover:[ 0 ]))

let suites =
  [
    ( "guards",
      [
        case "prng" test_prng_guards;
        case "parallel" test_parallel_guards;
        case "parallel spawn failure" test_spawn_failure_joins;
        case "wgraph" test_wgraph_guards;
        case "dijkstra" test_dijkstra_guards;
        case "spanner" test_spanner_guards;
        case "dist-matrix" test_dist_matrix_guards;
        case "generators" test_generator_guards;
        case "metric" test_metric_guards;
        case "tree metric" test_tree_guards;
        case "euclidean" test_euclid_guards;
        case "host" test_host_guards;
        case "strategy" test_strategy_guards;
        case "equilibrium" test_equilibrium_guards;
        case "best response" test_best_response_guards;
        case "social optimum" test_optimum_guards;
        case "ownership" test_ownership_guards;
        case "price of stability" test_pos_guards;
        case "constructions" test_construction_guards;
      ] );
  ]
