module Flt = Gncg_util.Flt
module ISet = Strategy.ISet
module Flat_adj = Gncg_graph.Flat_adj

(* Both costs can be infinite (disconnected before and after) and near-ties
   are floating-point noise: the tolerant comparison classifies both as
   "no gain", consistently with the rest of the engine. *)
let gain_between before after = if Flt.approx_eq before after then 0.0 else before -. after

let move_gain ?graph host s ~agent mv =
  gain_between
    (Cost.agent_cost ?graph host s agent)
    (Cost.agent_cost host (Move.apply s ~agent mv) agent)

(* One scan over the agent's candidates.  G(s) becomes one flat adjacency,
   private to the call (parallel scans share nothing), and every candidate
   is one allocation-free what-if pass on it into a reused row.  Each
   candidate's cost is [Cost.agent_cost] of the moved profile to the bit:
   the kernel's rows are [Dijkstra.sssp]'s, and the edited set is priced
   by the same ascending fold.  Ties keep the earlier candidate. *)
let scan_on ?kinds ?graph host s ~agent =
  let graph = match graph with Some g -> g | None -> Network.graph host s in
  let adj = Flat_adj.of_wgraph graph in
  let row = Array.make (Strategy.n s) 0.0 in
  let owned = Strategy.strategy s agent in
  Flat_adj.sssp_into adj agent row;
  let cur_dist = Flt.sum row in
  let before = Cost.edge_cost_of host agent owned +. cur_dist in
  let edited_set = function
    | Move.Add v -> ISet.add v owned
    | Move.Delete v -> ISet.remove v owned
    | Move.Swap (o, t) -> ISet.add t (ISet.remove o owned)
  in
  let pick acc mv =
    let after =
      Cost.edge_cost_of host agent (edited_set mv)
      +. Move.dist_sum_after adj host s ~agent ~current:cur_dist row mv
    in
    let gain = gain_between before after in
    match acc with
    | Some (_, g) when g >= gain -> acc
    | _ when gain > Flt.eps -> Some (mv, gain)
    | _ -> acc
  in
  (before, List.fold_left pick None (Move.candidates ?kinds host s ~agent))

let scan ?kinds host s ~agent = scan_on ?kinds host s ~agent

let best_move ?kinds ?graph host s ~agent = snd (scan_on ?kinds ?graph host s ~agent)

let best_single_move_cost ?kinds ?graph host s ~agent =
  match scan_on ?kinds ?graph host s ~agent with
  | current, None -> current
  | current, Some (_, gain) -> current -. gain
