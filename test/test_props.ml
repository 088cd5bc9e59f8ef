(* Property-based tests (QCheck) on the core invariants. *)

module Prng = Gncg_util.Prng
module Metric = Gncg_metric.Metric
module Wgraph = Gncg_graph.Wgraph
module Strategy = Gncg.Strategy

let seed_gen = QCheck.small_nat

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Derive a deterministic instance from a QCheck-provided seed, so shrink
   reports stay actionable. *)

let prop_metric_closure_is_metric seed =
  let r = Prng.create (seed + 1) in
  let h = Gncg_metric.Random_host.uniform r ~n:8 ~lo:1.0 ~hi:20.0 in
  Metric.is_metric (Metric.metric_closure h)

let prop_closure_fixpoint seed =
  let r = Prng.create (seed + 2) in
  let h = Gncg_metric.Random_host.uniform_metric r ~n:7 ~lo:1.0 ~hi:10.0 in
  Metric.equal h (Metric.metric_closure h)

let prop_dijkstra_floyd_agree seed =
  let r = Prng.create (seed + 3) in
  let n = 4 + Prng.int r 10 in
  let g = Wgraph.create n in
  let order = Prng.permutation r n in
  for i = 1 to n - 1 do
    Wgraph.add_edge g order.(i) order.(Prng.int r i) (Prng.float_in r 0.5 9.0)
  done;
  for _ = 1 to n do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && not (Wgraph.has_edge g u v) then
      Wgraph.add_edge g u v (Prng.float_in r 0.5 9.0)
  done;
  let fw = Gncg_graph.Floyd_warshall.closure_of_graph g in
  let ap = Gncg_graph.Dijkstra.apsp g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if not (Gncg_util.Flt.approx_eq ~tol:1e-6 fw.(u).(v) ap.(u).(v)) then ok := false
    done
  done;
  !ok

let prop_greedy_spanner_is_spanner seed =
  let r = Prng.create (seed + 4) in
  let n = 4 + Prng.int r 8 in
  let h = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:10.0 in
  let t = 1.0 +. Prng.float r 2.0 in
  let sp = Gncg_graph.Spanner.greedy n (Metric.weight h) t in
  Gncg_graph.Spanner.is_spanner ~host:(Metric.weight h) t sp

let prop_mst_weight_invariant seed =
  (* Kruskal and Prim find the same total weight on complete hosts. *)
  let r = Prng.create (seed + 5) in
  let n = 3 + Prng.int r 8 in
  let h = Gncg_metric.Random_host.uniform r ~n ~lo:1.0 ~hi:10.0 in
  let w = Metric.weight h in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v, w u v) :: !edges
    done
  done;
  let total es = List.fold_left (fun acc (_, _, x) -> acc +. x) 0.0 es in
  Gncg_util.Flt.approx_eq ~tol:1e-6
    (total (Gncg_graph.Mst.kruskal n !edges))
    (total (Gncg_graph.Mst.prim_complete n w))

let random_game seed ~n =
  let r = Prng.create seed in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let model =
    List.nth Gncg_workload.Instances.default_models (Prng.int r 4)
  in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
  let s = Gncg_workload.Instances.random_profile r host in
  (r, host, s)

let prop_br_beats_random_deviations seed =
  (* The exact best response is at least as good as 20 random strategies. *)
  let r, host, s = random_game (seed + 6) ~n:6 in
  let u = Prng.int r 6 in
  let _, best = Gncg.Best_response.exact host s u in
  let ok = ref true in
  for _ = 1 to 20 do
    let k = Prng.int r 6 in
    let targets =
      Prng.sample_without_replacement r k 6 |> List.filter (fun v -> v <> u)
    in
    let s' = Strategy.with_strategy s u (Strategy.ISet.of_list targets) in
    if Gncg.Cost.agent_cost host s' u < best -. 1e-6 then ok := false
  done;
  !ok

let prop_move_gain_consistent seed =
  (* Greedy's reported gain equals the cost delta of applying the move. *)
  let r, host, s = random_game (seed + 7) ~n:6 in
  let u = Prng.int r 6 in
  match snd (Gncg.Greedy.scan host s ~agent:u) with
  | None -> true
  | Some (mv, gain) ->
    let before = Gncg.Cost.agent_cost host s u in
    let after = Gncg.Cost.agent_cost host (Gncg.Move.apply s ~agent:u mv) u in
    Gncg_util.Flt.approx_eq ~tol:1e-6 gain (before -. after)

let prop_ae_is_spanner_lemma1 seed =
  (* Lemma 1: any add-only equilibrium on a metric host is an
     (alpha+1)-spanner of the host. *)
  let r = Prng.create (seed + 8) in
  let n = 5 + Prng.int r 3 in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let host =
    Gncg.Host.make ~alpha (Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:6.0)
  in
  let start = Gncg_workload.Instances.random_profile r host in
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 Gncg.Dynamics.Add_only Gncg.Dynamics.Round_robin)
      host start
  with
  | Gncg.Dynamics.Converged { profile; _ } ->
    let g = Gncg.Network.graph host profile in
    Gncg.Quality.host_stretch host g <= Gncg.Quality.ae_spanner_stretch alpha +. 1e-6
  | _ -> false (* add-only dynamics always converge *)

let prop_ne_social_ratio_respects_thm1 seed =
  (* Thm 1 consequence: any converged (Nash) state on a metric host costs
     at most (alpha+2)/2 times the optimum. *)
  let r = Prng.create (seed + 9) in
  let n = 5 in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let host =
    Gncg.Host.make ~alpha (Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:6.0)
  in
  let start = Gncg_workload.Instances.random_profile r host in
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:500 Gncg.Dynamics.Best_response Gncg.Dynamics.Round_robin)
      host start
  with
  | Gncg.Dynamics.Converged { profile; _ } ->
    let ne_cost = Gncg.Cost.social_cost host profile in
    let _, opt_cost = Gncg.Social_optimum.exact_small host in
    ne_cost /. opt_cost <= Gncg.Quality.metric_upper alpha +. 1e-6
  | _ -> true (* cycling: Thm 1 says nothing *)

let prop_tree_ne_is_tree_thm12 seed =
  let r = Prng.create (seed + 10) in
  let tree = Gncg_metric.Tree_metric.random r ~n:6 ~wmin:1.0 ~wmax:4.0 in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let host = Gncg.Host.make ~alpha (Gncg_metric.Tree_metric.metric tree) in
  let start = Gncg_workload.Instances.random_profile r host in
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:500 Gncg.Dynamics.Best_response Gncg.Dynamics.Round_robin)
      host start
  with
  | Gncg.Dynamics.Converged { profile; _ } ->
    Gncg_graph.Connectivity.is_tree (Gncg.Network.graph host profile)
  | _ -> true

let prop_strategy_roundtrip seed =
  let r = Prng.create (seed + 11) in
  let n = 3 + Prng.int r 8 in
  let s = ref (Strategy.empty n) in
  for _ = 1 to 2 * n do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then
      if Strategy.owns !s u v then s := Strategy.sell !s u v else s := Strategy.buy !s u v
  done;
  let listed = Strategy.owned_edges !s in
  List.for_all (fun (u, v) -> Strategy.owns !s u v) listed
  && List.length listed
     = List.fold_left ( + ) 0 (List.init n (fun u -> Strategy.out_degree !s u))

let prop_umfl_exact_leq_local seed =
  let r = Prng.create (seed + 12) in
  let nf = 2 + Prng.int r 6 and nc = 1 + Prng.int r 6 in
  let open_cost = Array.init nf (fun _ -> Prng.float r 10.0) in
  let service = Array.init nf (fun _ -> Array.init nc (fun _ -> Prng.float r 10.0)) in
  let inst = Gncg.Facility_location.make ~open_cost ~service () in
  let _, exact = Gncg.Facility_location.solve_exact inst in
  let _, local = Gncg.Facility_location.local_search inst in
  exact <= local +. 1e-9

let prop_one_two_poa_one_thm9 seed =
  (* Thm 9: for alpha < 1/2 every NE equals the Algorithm-1 optimum; any
     best-response convergence point must hit exactly the optimal cost. *)
  let r = Prng.create (seed + 13) in
  let n = 5 in
  let alpha = 0.05 +. Prng.float r 0.4 in
  let host = Gncg.Host.make ~alpha (Gncg_metric.One_two.random r ~n ~p_one:0.5) in
  let start = Gncg_workload.Instances.random_profile r host in
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:500 Gncg.Dynamics.Best_response Gncg.Dynamics.Round_robin)
      host start
  with
  | Gncg.Dynamics.Converged { profile; _ } ->
    let _, opt = Gncg.Social_optimum.algorithm_one host in
    Gncg_util.Flt.approx_eq ~tol:1e-6 (Gncg.Cost.social_cost host profile) opt
  | _ -> true

let prop_serialize_roundtrip seed =
  let r = Prng.create (seed + 14) in
  let model =
    List.nth Gncg_workload.Instances.default_models (Prng.int r 6)
  in
  let host = Gncg_workload.Instances.random_host r model ~n:6 ~alpha:(0.5 +. Prng.float r 5.0) in
  let s = Gncg_workload.Instances.random_profile r host in
  match
    ( Gncg.Serialize.host_of_string_result (Gncg.Serialize.host_to_string host),
      Gncg.Serialize.profile_of_string_result (Gncg.Serialize.profile_to_string s) )
  with
  | Ok host', Ok s' ->
    Metric.equal ~tol:0.0 (Gncg.Host.metric host) (Gncg.Host.metric host')
    && Gncg.Host.alpha host = Gncg.Host.alpha host'
    && Strategy.equal s s'
  | _ -> false

let prop_dist_matrix_insertion seed =
  let r = Prng.create (seed + 15) in
  let n = 4 + Prng.int r 8 in
  let g = Wgraph.create n in
  for i = 1 to n - 1 do
    Wgraph.add_edge g i (Prng.int r i) (Prng.float_in r 0.5 5.0)
  done;
  let updated = Gncg_graph.Incr_apsp.of_graph g in
  let u = Prng.int r n and v = Prng.int r n in
  if u = v || Wgraph.has_edge g u v then true
  else begin
    let w = Prng.float_in r 0.1 4.0 in
    ignore (Gncg_graph.Incr_apsp.add_edge updated u v w);
    Wgraph.add_edge g u v w;
    let reference = Gncg_graph.Incr_apsp.of_graph g in
    let ok = ref true in
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        if
          not
            (Gncg_util.Flt.approx_eq ~tol:1e-9
               (Gncg_graph.Incr_apsp.distance updated x y)
               (Gncg_graph.Incr_apsp.distance reference x y))
        then ok := false
      done
    done;
    !ok
  end

(* The paper's equilibrium constructions hold for every alpha, not just
   the grid the harness prints: sample the parameter space. *)

let random_alpha r = 0.3 +. Prng.float r 8.0

let prop_thm15_ne_random_alpha seed =
  let r = Prng.create (seed + 18) in
  let alpha = random_alpha r in
  let n = 3 + Prng.int r 4 in
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha ~n in
  Gncg.Equilibrium.is_ne host (Gncg_constructions.Thm15_tree_star.ne_profile ~alpha ~n)

let prop_lemma8_ne_random_alpha seed =
  let r = Prng.create (seed + 19) in
  let alpha = random_alpha r in
  let n = 2 + Prng.int r 4 in
  let host = Gncg_constructions.Lemma8_path.host ~alpha ~n in
  Gncg.Equilibrium.is_ne host (Gncg_constructions.Lemma8_path.ne_profile ~alpha ~n)

let prop_thm19_ne_random_alpha seed =
  let r = Prng.create (seed + 20) in
  let alpha = random_alpha r in
  let d = 1 + Prng.int r 2 in
  let host = Gncg_constructions.Thm19_cross.host ~alpha ~d in
  Gncg.Equilibrium.is_ne host (Gncg_constructions.Thm19_cross.ne_profile ~alpha ~d)

let prop_thm20_ratio seed =
  let r = Prng.create (seed + 21) in
  let alpha = random_alpha r in
  Gncg_util.Flt.approx_eq ~tol:1e-9
    (Gncg_constructions.Thm20_cycle.cost_ratio ~alpha)
    (Gncg.Quality.metric_upper alpha)

(* Domain-loop edge cases: the index claiming must stay correct at the
   degenerate corners (n = 0, fewer items than domains, a single
   domain), where an off-by-one silently drops or repeats indices.
   Generators draw from those corners explicitly rather than relying on
   small_nat to hit them. *)

let parallel_corner_gen =
  QCheck.make
    ~print:(fun (n, domains, seed) ->
      Printf.sprintf "n=%d domains=%d seed=%d" n domains seed)
    QCheck.Gen.(
      let* domains = oneofl [ 1; 2; 3; 4; 7 ] in
      let* n = oneofl [ 0; 1; domains - 1; domains; domains + 1; 10 * domains ] in
      let* seed = small_nat in
      return (n, domains, seed))

let par domains = Gncg_util.Exec.par ~domains ()

let prop_parallel_init_matches_array (n, domains, seed) =
  let f i = (i * 31) lxor seed in
  Gncg_util.Exec.init ~exec:(par domains) n f = Array.init n f

let prop_parallel_quantifiers_match (n, domains, seed) =
  (* A predicate that is false on a pseudo-random subset (sometimes empty,
     sometimes everything), so both the early-exit and the full-scan paths
     get exercised. *)
  let pred i = (i + seed) mod 3 <> 0 in
  let seq_all = ref true and seq_any = ref false in
  for i = 0 to n - 1 do
    seq_all := !seq_all && pred i;
    seq_any := !seq_any || pred i
  done;
  let exec = par domains in
  Gncg_util.Exec.for_all ~exec n pred = !seq_all
  && (not (Gncg_util.Exec.for_all ~exec n (fun i -> not (pred i)))) = !seq_any

let prop_parallel_vacuous (_, domains, _) =
  (* Quantifiers over the empty index space. *)
  let exec = par domains in
  Gncg_util.Exec.for_all ~exec 0 (fun _ -> false)
  && Gncg_util.Exec.init ~exec 0 (fun i -> i) = [||]

let suites =
  [
    ( "properties",
      [
        qtest "metric closure is metric" seed_gen prop_metric_closure_is_metric;
        qtest "closure fixpoint on metrics" seed_gen prop_closure_fixpoint;
        qtest "dijkstra = floyd-warshall" seed_gen prop_dijkstra_floyd_agree;
        qtest "greedy spanner property" seed_gen prop_greedy_spanner_is_spanner;
        qtest "kruskal = prim weight" seed_gen prop_mst_weight_invariant;
        qtest ~count:20 "BR beats random deviations" seed_gen prop_br_beats_random_deviations;
        qtest ~count:20 "greedy gain consistent" seed_gen prop_move_gain_consistent;
        qtest ~count:15 "Lemma 1: AE spanner" seed_gen prop_ae_is_spanner_lemma1;
        qtest ~count:10 "Thm 1: NE ratio bound" seed_gen prop_ne_social_ratio_respects_thm1;
        qtest ~count:10 "Thm 12: tree NE" seed_gen prop_tree_ne_is_tree_thm12;
        qtest "strategy bookkeeping" seed_gen prop_strategy_roundtrip;
        qtest "UMFL exact <= local" seed_gen prop_umfl_exact_leq_local;
        qtest ~count:10 "Thm 9: PoA = 1 below 1/2" seed_gen prop_one_two_poa_one_thm9;
        qtest ~count:15 "Thm 15 star NE at random alpha" seed_gen prop_thm15_ne_random_alpha;
        qtest ~count:15 "Lemma 8 star NE at random alpha" seed_gen prop_lemma8_ne_random_alpha;
        qtest ~count:10 "Thm 19 cross NE at random alpha" seed_gen prop_thm19_ne_random_alpha;
        qtest ~count:15 "Thm 20 ratio closed form" seed_gen prop_thm20_ratio;
        qtest "serialize roundtrip" seed_gen prop_serialize_roundtrip;
        qtest "dist-matrix insertion exact" seed_gen prop_dist_matrix_insertion;
        qtest ~count:60 "parallel init = Array.init at corners" parallel_corner_gen
          prop_parallel_init_matches_array;
        qtest ~count:60 "parallel for_all/exists = sequential at corners"
          parallel_corner_gen prop_parallel_quantifiers_match;
        qtest ~count:20 "parallel quantifiers vacuous on n=0" parallel_corner_gen
          prop_parallel_vacuous;
      ] );
  ]
