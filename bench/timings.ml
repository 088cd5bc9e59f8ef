(* Bechamel timing benches: one Test.make per experiment family, measuring
   the engine primitive that dominates that experiment. *)

open Bechamel
open Toolkit

let prepared () =
  let rng = Gncg_util.Prng.create 1 in
  let one_two_host n = Gncg.Host.make ~alpha:0.8 (Gncg_metric.One_two.random rng ~n ~p_one:0.5) in
  let metric_host n =
    Gncg.Host.make ~alpha:2.0 (Gncg_metric.Random_host.uniform_metric rng ~n ~lo:1.0 ~hi:6.0)
  in
  let host30 = metric_host 30 in
  let profile30 = Gncg_workload.Instances.random_profile rng host30 in
  let graph30 = Gncg.Network.graph host30 profile30 in
  let host6 = metric_host 6 in
  let host200 = metric_host 200 in
  let graph200 =
    Gncg.Network.graph host200 (Gncg_workload.Instances.random_profile rng host200)
  in
  let host10 = metric_host 10 in
  let profile10 = Gncg_workload.Instances.random_profile rng host10 in
  let ge_of host start =
    match
      Gncg.Dynamics.run
        (Gncg.Dynamics.Config.make ~max_steps:50_000 ~evaluator:`Incremental
           Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
        host start
    with
    | Gncg.Dynamics.Converged { profile; _ } -> profile
    | _ -> start
  in
  let host100 = metric_host 100 in
  let start100 = Gncg_workload.Instances.random_profile rng host100 in
  let ge100 = ge_of host100 start100 in
  let host40 = metric_host 40 in
  let ge40 = ge_of host40 (Gncg_workload.Instances.random_profile rng host40) in
  let host12_12 = one_two_host 40 in
  let tree_host =
    Gncg_constructions.Thm15_tree_star.host ~alpha:4.0 ~n:32
  in
  let tree_ne = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:4.0 ~n:32 in
  let cross_host = Gncg_constructions.Thm19_cross.host ~alpha:2.0 ~d:8 in
  let cross_ne = Gncg_constructions.Thm19_cross.ne_profile ~alpha:2.0 ~d:8 in
  let umfl, _ = Gncg.Best_response.umfl_instance host10 profile10 0 in
  [
    (* E1/E16: Algorithm 1 on 1-2 hosts. *)
    Test.make ~name:"e1_e16/algorithm-1 (n=40)" (Staged.stage (fun () ->
        ignore (Gncg.Social_optimum.algorithm_one host12_12)));
    (* E2: social cost of the Thm 8 equilibrium (APSP-dominated). *)
    Test.make ~name:"e2/social-cost thm8 (N=5)" (Staged.stage (fun () ->
        let h = Gncg_constructions.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:5 ~nb_leaves:5 in
        let s = Gncg_constructions.Thm8_onetwo.ne_profile Alpha_one ~nb_centers:5 ~nb_leaves:5 in
        ignore (Gncg.Cost.social_cost h s)));
    (* E3: one greedy response round on a 1-2 host. *)
    Test.make ~name:"e3/greedy best-move (n=40)" (Staged.stage (fun () ->
        let s = Gncg.Strategy.star 40 ~center:0 in
        ignore (Gncg.Greedy.best_move host12_12 s ~agent:1)));
    (* E4/E5: tree-star cost evaluation. *)
    Test.make ~name:"e4_e5/social-cost thm15 (n=32)" (Staged.stage (fun () ->
        ignore (Gncg.Cost.social_cost tree_host tree_ne)));
    (* E6-E8: geometric equilibrium evaluation. *)
    Test.make ~name:"e6_e8/social-cost cross (d=8)" (Staged.stage (fun () ->
        ignore (Gncg.Cost.social_cost cross_host cross_ne)));
    (* E10: one exact best-response (branch & bound over UMFL). *)
    Test.make ~name:"e10/exact best-response (n=10)" (Staged.stage (fun () ->
        ignore (Gncg.Best_response.exact host10 profile10 3)));
    (* E11/E12: UMFL local search. *)
    Test.make ~name:"e11_e12/umfl local-search (n=10)" (Staged.stage (fun () ->
        ignore (Gncg.Facility_location.local_search umfl)));
    (* E13-E15: APSP on a built network. *)
    Test.make ~name:"e13_e15/apsp (n=30)" (Staged.stage (fun () ->
        ignore (Gncg_graph.Dijkstra.apsp graph30)));
    (* Substrate: greedy spanner construction. *)
    Test.make ~name:"substrate/greedy 2-spanner (n=30)" (Staged.stage (fun () ->
        ignore
          (Gncg_graph.Spanner.greedy 30 (fun u v -> Gncg.Host.weight host30 u v) 2.0)));
    (* Substrate: MST of the host. *)
    Test.make ~name:"substrate/prim mst (n=30)" (Staged.stage (fun () ->
        ignore (Gncg_graph.Mst.prim_complete 30 (fun u v -> Gncg.Host.weight host30 u v))));
    (* Ablation: the stateless greedy move scan. *)
    Test.make ~name:"ablation/greedy best-move reference (n=30)" (Staged.stage (fun () ->
        ignore (Gncg.Greedy.best_move host30 profile30 ~agent:3)));
    (* Ablation: exact best response, branch & bound vs enumeration. *)
    Test.make ~name:"ablation/BR branch&bound (n=10)" (Staged.stage (fun () ->
        ignore (Gncg.Best_response.exact host10 profile10 5)));
    Test.make ~name:"ablation/BR enumeration (n=10)" (Staged.stage (fun () ->
        ignore (Gncg.Best_response.exact_enum host10 profile10 5)));
    (* Ablation: sequential vs multicore APSP — domain spawning costs
       ~100us, so the parallel variant only wins on larger graphs. *)
    Test.make ~name:"ablation/apsp sequential (n=30)" (Staged.stage (fun () ->
        ignore (Gncg_graph.Dijkstra.apsp graph30)));
    Test.make ~name:"ablation/apsp parallel (n=30)" (Staged.stage (fun () ->
        ignore (Gncg_graph.Dijkstra.apsp ~exec:Gncg_util.Exec.default graph30)));
    Test.make ~name:"ablation/apsp sequential (n=200)" (Staged.stage (fun () ->
        ignore (Gncg_graph.Dijkstra.apsp graph200)));
    Test.make ~name:"ablation/apsp parallel (n=200)" (Staged.stage (fun () ->
        ignore (Gncg_graph.Dijkstra.apsp ~exec:Gncg_util.Exec.default graph200)));
    (* Substrate: centrality and the dynamic distance matrix. *)
    Test.make ~name:"substrate/betweenness (n=30)" (Staged.stage (fun () ->
        ignore (Gncg_graph.Betweenness.edge graph30)));
    Test.make ~name:"substrate/dist-matrix add-total (n=200)"
      (Staged.stage
         (let dm = Gncg_graph.Dist_matrix.of_graph graph200 in
          fun () -> ignore (Gncg_graph.Dist_matrix.total_with_edge_added dm 0 199 0.5)));
    (* Hot path: greedy response dynamics, reference (rebuild + Dijkstra
       per candidate) vs the incremental distance engine.  Same host,
       start profile and activation schedule; fixed step budget so the
       two measure identical work. *)
    Test.make ~name:"dynamics/greedy reference (n=100, 100 steps)" (Staged.stage (fun () ->
        ignore
          (Gncg.Dynamics.run
             (Gncg.Dynamics.Config.make ~max_steps:100 ~evaluator:`Reference
                Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
             host100 start100)));
    Test.make ~name:"dynamics/greedy incremental (n=100, 100 steps)" (Staged.stage (fun () ->
        ignore
          (Gncg.Dynamics.run
             (Gncg.Dynamics.Config.make ~max_steps:100 ~evaluator:`Incremental
                Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
             host100 start100)));
    (* Equilibrium verification: sequential vs domain-parallel per-agent
       scans.  [is_ge] is the polynomial scan; [is_ne] runs the exact
       (exponential) best-response oracle per agent, so it is benched at
       the largest n where that oracle is feasible. *)
    Test.make ~name:"equilibrium/is_ge sequential (n=100)" (Staged.stage (fun () ->
        ignore (Gncg.Equilibrium.is_ge host100 ge100)));
    Test.make ~name:"equilibrium/is_ge parallel (n=100)" (Staged.stage (fun () ->
        ignore (Gncg.Equilibrium.is_ge ~exec:Gncg_util.Exec.default host100 ge100)));
    Test.make ~name:"equilibrium/is_ne sequential (n=40)" (Staged.stage (fun () ->
        ignore (Gncg.Equilibrium.is_ne host40 ge40)));
    Test.make ~name:"equilibrium/is_ne parallel (n=40)" (Staged.stage (fun () ->
        ignore (Gncg.Equilibrium.is_ne ~exec:Gncg_util.Exec.default host40 ge40)));
    (* Incremental APSP maintenance: one edge flip (insert + delete, the
       net work of a dynamics step) vs recomputing APSP from scratch. *)
    Test.make ~name:"incr/edge flip update (n=200)"
      (Staged.stage
         (let incr = Gncg_graph.Incr_apsp.of_graph graph200 in
          let u, v =
            let g = Gncg_graph.Incr_apsp.graph incr in
            let rec pick u v =
              if not (Gncg_graph.Wgraph.has_edge g u v) then (u, v)
              else if v + 1 < 200 then pick u (v + 1)
              else pick (u + 1) (u + 2)
            in
            pick 0 1
          in
          let w = Gncg.Host.weight host200 u v in
          fun () ->
            ignore (Gncg_graph.Incr_apsp.add_edge incr u v w);
            ignore (Gncg_graph.Incr_apsp.remove_edge incr u v)));
    Test.make ~name:"incr/apsp rebuild (n=200)" (Staged.stage (fun () ->
        ignore (Gncg_graph.Dijkstra.apsp graph200)));
    (* Social optimum engines at test scale. *)
    Test.make ~name:"optimum/branch&bound (n=6)" (Staged.stage (fun () ->
        ignore (Gncg.Social_optimum.exact_bnb host6)));
    Test.make ~name:"optimum/greedy heuristic (n=30)" (Staged.stage (fun () ->
        ignore (Gncg.Social_optimum.greedy_heuristic host30)));
  ]

let run () =
  print_endline "\n=== Timings (Bechamel, monotonic clock, ns/run) ===";
  let tests = prepared () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"gncg" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let sorted = List.sort compare !rows in
  Gncg_util.Tablefmt.print
    ~align:[ Gncg_util.Tablefmt.Left ]
    ~header:[ "benchmark"; "time/run" ]
    (List.map
       (fun (name, ns) ->
         let human =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; human ])
       sorted)
