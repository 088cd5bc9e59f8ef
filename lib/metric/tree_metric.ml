module Wgraph = Gncg_graph.Wgraph
module Flt = Gncg_util.Flt

type tree = { size : int; tree_edges : (int * int * float) list }

let make size edge_list =
  if size < 1 then invalid_arg "Tree_metric.make: empty tree";
  if List.length edge_list <> size - 1 then
    invalid_arg "Tree_metric.make: a tree on n vertices has n-1 edges";
  List.iter
    (fun (_, _, w) -> if w <= 0.0 then invalid_arg "Tree_metric.make: non-positive weight")
    edge_list;
  let uf = Gncg_graph.Union_find.create size in
  List.iter
    (fun (u, v, _) ->
      if not (Gncg_graph.Union_find.union uf u v) then
        invalid_arg "Tree_metric.make: edges contain a cycle")
    edge_list;
  if Gncg_graph.Union_find.count uf <> 1 then invalid_arg "Tree_metric.make: not connected";
  { size; tree_edges = edge_list }

let size t = t.size

let graph t = Wgraph.of_edges t.size t.tree_edges

let metric t = Metric.of_graph_closure (graph t)

let star n leaf_weight =
  if n < 1 then invalid_arg "Tree_metric.star";
  make n (List.init (n - 1) (fun i -> (0, i + 1, leaf_weight (i + 1))))

let random rng ~n ~wmin ~wmax =
  if n < 1 then invalid_arg "Tree_metric.random";
  if wmin <= 0.0 || wmax < wmin then invalid_arg "Tree_metric.random: bad weight range";
  let edge i =
    let parent = Gncg_util.Prng.int rng i in
    (parent, i, Gncg_util.Prng.float_in rng wmin wmax)
  in
  make n (List.init (n - 1) (fun i -> edge (i + 1)))

let is_tree_metric ?(tol = Flt.eps) h =
  let n = Metric.n h in
  let w = Metric.weight h in
  let ok = ref (Metric.is_metric ~tol h) in
  (* Four-point condition: of the three pairings of {u,v,x,y}, the two
     largest sums must be equal (within tolerance); equivalently each sum is
     at most the max of the other two. *)
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      for x = v + 1 to n - 1 do
        for y = x + 1 to n - 1 do
          let s1 = w u v +. w x y and s2 = w u x +. w v y and s3 = w u y +. w v x in
          (* The two largest of the three pair sums must agree: each sum
             is at most the max of the other two. *)
          let le_max a b c = Flt.le ~tol a (Float.max b c) in
          if not (le_max s1 s2 s3 && le_max s2 s1 s3 && le_max s3 s1 s2) then ok := false
        done
      done
    done
  done;
  !ok
