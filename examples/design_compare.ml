(* Network design, centralized vs decentralized.

   The paper frames low-cost equilibria as "decentralized and stable
   approximations of the optimum network design".  This example makes the
   comparison concrete on one realistic instance (a metro-area graph
   metric): for several designs of the same host we tabulate cost,
   structure and stretch, and check which are stable.

     - MST              cheapest possible edge cost, long detours
     - greedy OPT       steepest-descent network-design heuristic
     - complete host    minimum distances, absurd edge cost
     - selfish (GE)     greedy-response equilibrium from a random start
     - opt-seeded (GE)  equilibrium reached from the heuristic optimum

   Run:  dune exec examples/design_compare.exe *)

module Wgraph = Gncg_graph.Wgraph
module T = Gncg_util.Tablefmt

let () =
  let rng = Gncg_util.Prng.create 1234 in
  let alpha = 3.0 in
  (* Host: shortest-path metric of a random connected "street" graph. *)
  let streets = Gncg_graph.Generators.gnp_connected rng ~n:16 ~p:0.2 ~wmin:1.0 ~wmax:8.0 in
  let host = Gncg.Host.make ~alpha (Gncg_metric.Metric.of_graph_closure streets) in
  let n = Gncg.Host.n host in
  Printf.printf "Host: %d-agent graph metric, alpha = %g\n\n" n alpha;

  let designs = ref [] in
  let add name ?profile graph =
    let stats =
      match profile with
      | Some s -> Gncg.Net_stats.of_profile host s
      | None -> Gncg.Net_stats.of_network host graph
    in
    let stable =
      match profile with
      | Some s -> if Gncg.Equilibrium.is_ge host s then "GE" else "no"
      | None -> (
        (* Is there any ownership making it greedy-stable?  Too expensive
           to enumerate in general; test the canonical orientation. *)
        match Gncg_graph.Connectivity.is_connected graph with
        | true ->
          if Gncg.Equilibrium.is_ge host (Gncg.Strategy.of_graph_arbitrary_owners graph)
          then "GE*"
          else "no"
        | false -> "no")
    in
    designs := (name, stats, stable) :: !designs
  in

  let mst =
    Wgraph.of_edges n (Gncg_graph.Mst.prim_complete n (fun u v -> Gncg.Host.weight host u v))
  in
  add "MST" mst;
  let greedy_g, _ = Gncg.Social_optimum.greedy_heuristic host in
  add "greedy OPT" greedy_g;
  add "complete host" (Gncg_metric.Metric.complete_graph (Gncg.Host.metric host));

  let start = Gncg_workload.Instances.random_profile rng host in
  (match
     Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:6000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
   with
  | Gncg.Dynamics.Converged { profile; _ } -> add "selfish (random start)" ~profile (Gncg.Network.graph host profile)
  | _ -> print_endline "note: selfish dynamics did not settle");
  (match Gncg.Price_of_stability.stable_from_optimum host with
  | Some (profile, _) -> add "selfish (opt-seeded)" ~profile (Gncg.Network.graph host profile)
  | None -> print_endline "note: opt-seeded dynamics did not settle");

  let baseline =
    List.fold_left
      (fun acc (_, s, _) -> Float.min acc s.Gncg.Net_stats.social_cost)
      Float.infinity !designs
  in
  T.print
    ~align:[ T.Left ]
    ~header:(("design" :: Gncg.Net_stats.header) @ [ "vs best"; "stable" ])
    (List.rev_map
       (fun (name, s, stable) ->
         (name :: Gncg.Net_stats.row s)
         @ [ T.fl ~digits:3 (s.Gncg.Net_stats.social_cost /. baseline); stable ])
       !designs);
  Printf.printf
    "\nLemma 1 bound on any equilibrium's stretch: %.2f;  Thm 1 bound on its cost: %.2f x best\n"
    (Gncg.Quality.ae_spanner_stretch alpha)
    (Gncg.Quality.metric_upper alpha)
