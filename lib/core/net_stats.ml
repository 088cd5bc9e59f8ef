module Wgraph = Gncg_graph.Wgraph
module T = Gncg_util.Tablefmt

type t = {
  n : int;
  m : int;
  total_weight : float;
  diameter : float;
  avg_degree : float;
  max_degree : int;
  components : int;
  is_tree : bool;
  social_cost : float;
  stretch : float;
}

let build host g social_cost =
  let n = Wgraph.n g in
  let max_degree = ref 0 in
  for v = 0 to n - 1 do
    max_degree := max !max_degree (Wgraph.degree g v)
  done;
  {
    n;
    m = Wgraph.m g;
    total_weight = Wgraph.total_weight g;
    diameter = Gncg_graph.Dijkstra.diameter g;
    avg_degree = (if n = 0 then 0.0 else 2.0 *. float_of_int (Wgraph.m g) /. float_of_int n);
    max_degree = !max_degree;
    components = Gncg_graph.Connectivity.component_count g;
    is_tree = Gncg_graph.Connectivity.is_tree g;
    social_cost;
    stretch = Quality.host_stretch host g;
  }

let of_network host g = build host g (Cost.network_social_cost host g)

let of_profile host s = build host (Network.graph host s) (Cost.social_cost host s)

let header =
  [ "n"; "edges"; "weight"; "diam"; "avg deg"; "max deg"; "comp"; "shape"; "cost"; "stretch" ]

let row t =
  [
    string_of_int t.n;
    string_of_int t.m;
    T.fl ~digits:2 t.total_weight;
    T.fl ~digits:2 t.diameter;
    T.fl ~digits:2 t.avg_degree;
    string_of_int t.max_degree;
    string_of_int t.components;
    (if t.is_tree then "tree" else "-");
    T.fl ~digits:2 t.social_cost;
    T.fl ~digits:3 t.stretch;
  ]
