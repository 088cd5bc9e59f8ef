module ISet = Strategy.ISet
module Flt = Gncg_util.Flt

type parts = { edge : float; dist : float }

let edge_cost_of host u set =
  Host.alpha host *. ISet.fold (fun v acc -> acc +. Host.weight host u v) set 0.0

let agent_edge_cost host s u = edge_cost_of host u (Strategy.strategy s u)

let dist_sum dists u =
  (* Sum of distances to all other agents; own entry is 0 so it is harmless
     to include it. *)
  ignore u;
  Flt.sum dists

let agent_dist_cost ?graph host s u =
  let g = match graph with Some g -> g | None -> Network.graph host s in
  dist_sum (Gncg_graph.Dijkstra.sssp g u) u

let agent_parts ?graph host s u =
  { edge = agent_edge_cost host s u; dist = agent_dist_cost ?graph host s u }

let agent_cost ?graph host s u =
  let p = agent_parts ?graph host s u in
  p.edge +. p.dist

let agent_cost_with_dists host s u dists =
  agent_edge_cost host s u +. Flt.sum dists

let social_parts host s =
  let g = Network.graph host s in
  let n = Strategy.n s in
  let edge = ref 0.0 and dist = ref 0.0 in
  for u = 0 to n - 1 do
    edge := !edge +. agent_edge_cost host s u;
    dist := !dist +. agent_dist_cost ~graph:g host s u
  done;
  { edge = !edge; dist = !dist }

let social_cost ?(exec = Gncg_util.Exec.Seq) host s =
  match exec with
  | Gncg_util.Exec.Seq ->
    let p = social_parts host s in
    p.edge +. p.dist
  | _ ->
    let g = Network.graph host s in
    let n = Strategy.n s in
    let per_agent =
      Gncg_util.Exec.init ~exec n (fun u ->
          agent_edge_cost host s u +. agent_dist_cost ~graph:g host s u)
    in
    Flt.sum per_agent

let network_parts host g =
  let dist = ref 0.0 in
  for u = 0 to Gncg_graph.Wgraph.n g - 1 do
    dist := !dist +. Flt.sum (Gncg_graph.Dijkstra.sssp g u)
  done;
  { edge = Host.alpha host *. Gncg_graph.Wgraph.total_weight g; dist = !dist }

let network_social_cost ?(exec = Gncg_util.Exec.Seq) host g =
  match exec with
  | Gncg_util.Exec.Seq ->
    let p = network_parts host g in
    p.edge +. p.dist
  | _ ->
    let dist =
      Gncg_util.Exec.init ~exec (Gncg_graph.Wgraph.n g) (fun u ->
          Flt.sum (Gncg_graph.Dijkstra.sssp g u))
    in
    (Host.alpha host *. Gncg_graph.Wgraph.total_weight g) +. Flt.sum dist
