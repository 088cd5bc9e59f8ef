module Prng = Gncg_util.Prng
module Wgraph = Gncg_graph.Wgraph

let uniform rng ~n ~lo ~hi =
  if lo <= 0.0 || hi < lo then invalid_arg "Random_host.uniform: bad range";
  Metric.make n (fun _ _ -> Prng.float_in rng lo hi)

let uniform_metric rng ~n ~lo ~hi = Metric.metric_closure (uniform rng ~n ~lo ~hi)

(* Geometric hosts keep their implicit description next to the tabulated
   metric; the [*_geometry] forms skip the O(n²) tabulation. *)

let tree_geometry rng ~n ~wmin ~wmax =
  Geometry.tree (Tree_metric.random rng ~n ~wmin ~wmax)

let tree_metric rng ~n ~wmin ~wmax =
  let geo = tree_geometry rng ~n ~wmin ~wmax in
  (Geometry.to_metric geo, geo)

let random_graph_metric rng ~n ~p ~wmin ~wmax =
  if wmin <= 0.0 || wmax < wmin then invalid_arg "Random_host.random_graph_metric";
  let g = Wgraph.create n in
  (* Spanning tree for connectivity, then extra random edges. *)
  let order = Prng.permutation rng n in
  for i = 1 to n - 1 do
    let j = Prng.int rng i in
    Wgraph.add_edge g order.(i) order.(j) (Prng.float_in rng wmin wmax)
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if (not (Wgraph.has_edge g u v)) && Prng.coin rng p then
        Wgraph.add_edge g u v (Prng.float_in rng wmin wmax)
    done
  done;
  Metric.of_graph_closure g
