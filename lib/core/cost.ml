module ISet = Strategy.ISet
module Flt = Gncg_util.Flt

type parts = { edge : float; dist : float }

let edge_cost_of host u set =
  Host.alpha host *. ISet.fold (fun v acc -> acc +. Host.weight host u v) set 0.0

let agent_edge_cost host s u = edge_cost_of host u (Strategy.strategy s u)

(* The row's own entry is 0, so summing the whole row is harmless. *)
let agent_dist_cost ?graph host s u =
  let g = match graph with Some g -> g | None -> Network.graph host s in
  Flt.sum (Gncg_graph.Dijkstra.sssp g u)

let agent_parts ?graph host s u =
  { edge = agent_edge_cost host s u; dist = agent_dist_cost ?graph host s u }

let agent_cost ?graph host s u =
  let p = agent_parts ?graph host s u in
  p.edge +. p.dist

(* Rows summed one after another in agent order: [social_parts], the
   network costs and the optimum's branch-and-bound all add the same
   floats in the same order. *)
let network_dist g =
  let dist = ref 0.0 in
  for u = 0 to Gncg_graph.Wgraph.n g - 1 do
    dist := !dist +. Flt.sum (Gncg_graph.Dijkstra.sssp g u)
  done;
  !dist

let social_parts host s =
  let edge = ref 0.0 in
  for u = 0 to Strategy.n s - 1 do
    edge := !edge +. agent_edge_cost host s u
  done;
  { edge = !edge; dist = network_dist (Network.graph host s) }

let social_cost host s =
  let p = social_parts host s in
  p.edge +. p.dist

let network_parts host g =
  { edge = Host.alpha host *. Gncg_graph.Wgraph.total_weight g; dist = network_dist g }

let network_social_cost host g =
  let p = network_parts host g in
  p.edge +. p.dist
