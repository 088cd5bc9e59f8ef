type run = {
  model : string;
  n : int;
  alpha : float;
  seed : int;
  converged : bool;
  steps : int;
  stable_cost : float;
  opt_cost : float;
  ratio : float;
  diameter : float;
  stretch : float;
  is_tree : bool;
}

let dynamics_run ~rule ~max_steps model ~n ~alpha ~seed =
  let rng = Gncg_util.Prng.create seed in
  let host = Instances.random_host rng model ~n ~alpha in
  let start = Instances.random_profile rng host in
  let scheduler = Gncg.Dynamics.Random_order (Gncg_util.Prng.split rng) in
  let outcome =
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps rule scheduler)
      host start
  in
  let profile, converged, steps =
    match outcome with
    | Gncg.Dynamics.Converged { profile; steps; _ } -> (profile, true, List.length steps)
    | Gncg.Dynamics.Cycle { profiles; steps } ->
      (List.hd profiles, false, List.length steps)
    | Gncg.Dynamics.Out_of_steps { profile; steps } ->
      (profile, false, List.length steps)
  in
  let stable_cost = Gncg.Cost.social_cost host profile in
  let _, opt_cost = Gncg.Social_optimum.best_known host in
  let g = Gncg.Network.graph host profile in
  {
    model = Instances.model_name model;
    n;
    alpha;
    seed;
    converged;
    steps;
    stable_cost;
    opt_cost;
    ratio =
      (if not converged then Float.nan
       else if stable_cost = 0.0 && opt_cost = 0.0 then 1.0 (* one agent: 0/0 *)
       else stable_cost /. opt_cost);
    diameter = Gncg_graph.Dijkstra.diameter g;
    stretch = Gncg.Quality.host_stretch host g;
    is_tree = Gncg_graph.Connectivity.is_tree g;
  }

let cartesian ~ns ~alphas ~seeds =
  List.concat_map
    (fun n ->
      List.concat_map (fun alpha -> List.map (fun seed -> (n, alpha, seed)) seeds) alphas)
    ns

let ratios runs =
  List.filter_map (fun r -> if r.converged then Some r.ratio else None) runs

(* Guarded: an empty batch is a defined 0., not the NaN of 0/0. *)
let converged_fraction runs =
  match runs with
  | [] -> 0.0
  | _ ->
    float_of_int (List.length (List.filter (fun r -> r.converged) runs))
    /. float_of_int (List.length runs)
