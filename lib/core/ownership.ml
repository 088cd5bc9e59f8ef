module Wgraph = Gncg_graph.Wgraph

let orientations g =
  let edges = Array.of_list (Wgraph.edges g) in
  let k = Array.length edges in
  if k > Sys.int_size - 2 then invalid_arg "Ownership.orientations: too many edges";
  let n = Wgraph.n g in
  let profile_of_mask mask =
    let s = ref (Strategy.empty n) in
    Array.iteri
      (fun i (u, v, _) ->
        let owner, target = if mask land (1 lsl i) = 0 then (u, v) else (v, u) in
        s := Strategy.buy !s owner target)
      edges;
    !s
  in
  Seq.map profile_of_mask (Seq.init (1 lsl k) (fun m -> m))

let find g predicate = Seq.find predicate (orientations g)

let guarded max_edges g =
  if Wgraph.m g > max_edges then
    invalid_arg
      (Printf.sprintf "Ownership: %d edges exceed enumeration limit %d" (Wgraph.m g)
         max_edges)

let find_ne ?(max_edges = 20) host g =
  guarded max_edges g;
  find g (Equilibrium.is_ne host)
