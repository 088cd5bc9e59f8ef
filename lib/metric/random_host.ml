module Prng = Gncg_util.Prng
module Wgraph = Gncg_graph.Wgraph
module Gncg_error = Gncg_util.Gncg_error

(* Under [--strict-validate] every generated host is checked before it
   escapes: a bad parameterization (or a generator bug) surfaces as a
   typed, located error at the generation site instead of a corrupted
   sweep result downstream. *)
let checked ~context ~require_metric m =
  if Gncg_error.strict_validation () then
    (match Metric.validate ~require_metric m with
    | Ok () -> ()
    | Error e -> Gncg_error.raise_ { e with context });
  m

let uniform rng ~n ~lo ~hi =
  if lo <= 0.0 || hi < lo then invalid_arg "Random_host.uniform: bad range";
  checked ~context:"Random_host.uniform" ~require_metric:false
    (Metric.make n (fun _ _ -> Prng.float_in rng lo hi))

let uniform_metric rng ~n ~lo ~hi =
  checked ~context:"Random_host.uniform_metric" ~require_metric:true
    (Metric.metric_closure (uniform rng ~n ~lo ~hi))

(* Geometric hosts keep their implicit description next to the tabulated
   metric; the [*_geometry] forms skip the O(n²) tabulation. *)

let tree_geometry rng ~n ~wmin ~wmax =
  Geometry.tree (Tree_metric.random rng ~n ~wmin ~wmax)

let tree_metric rng ~n ~wmin ~wmax =
  let geo = tree_geometry rng ~n ~wmin ~wmax in
  ( checked ~context:"Random_host.tree_metric" ~require_metric:true
      (Geometry.to_metric geo),
    geo )

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
  checked ~context:"Random_host.random_graph_metric" ~require_metric:true
    (Metric.of_graph_closure g)
