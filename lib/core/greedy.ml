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

(* The agent's distance sum in the moved profile's network, where [adj]
   holds G(s) and [current] is the sum in it: one what-if pass into
   [row].  A sold edge that the other endpoint also buys stays built, so
   such a [Delete] changes nothing and needs no pass. *)
let dist_sum_after adj host s ~agent ~current row mv =
  let sold v = if Strategy.owns s v agent then None else Some (agent, v) in
  let bought v = Some (agent, v, Host.weight host agent v) in
  let remove, add =
    match mv with
    | Move.Add v -> (None, bought v)
    | Move.Delete v -> (sold v, None)
    | Move.Swap (o, t) -> (sold o, bought t)
  in
  match (remove, add) with
  | None, None -> current
  | _ ->
    Flat_adj.sssp_edited_into adj ?remove ?add agent row;
    Flt.sum row

(* One fold over the agent's candidates, in [Move.candidates] order.  G(s)
   becomes one flat adjacency, private to the call (parallel scans share
   nothing), and every candidate is one allocation-free what-if pass on it
   into a reused row.  Each candidate's cost is [Cost.agent_cost] of the
   moved profile to the bit: the kernel's rows are [Dijkstra.sssp]'s, and
   the edited set is priced by the same ascending fold.  Returns the
   current cost and the folded result. *)
let fold_gains ?kinds ?graph host s ~agent f init =
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
  let step acc mv =
    let after =
      Cost.edge_cost_of host agent (edited_set mv)
      +. dist_sum_after adj host s ~agent ~current:cur_dist row mv
    in
    f acc mv (gain_between before after)
  in
  (before, List.fold_left step init (Move.candidates ?kinds host s ~agent))

(* The largest strict improvement; ties keep the earlier candidate. *)
let pick acc mv gain =
  match acc with
  | Some (_, g) when g >= gain -> acc
  | _ when gain > Flt.eps -> Some (mv, gain)
  | _ -> acc

let scan ?kinds host s ~agent = fold_gains ?kinds host s ~agent pick None

let gains ?kinds host s ~agent =
  let current, rev = fold_gains ?kinds host s ~agent (fun acc mv g -> (mv, g) :: acc) [] in
  (current, List.rev rev)

let best_move ?kinds ?graph host s ~agent = snd (fold_gains ?kinds ?graph host s ~agent pick None)

let best_single_move_cost ?kinds ?graph host s ~agent =
  match fold_gains ?kinds ?graph host s ~agent pick None with
  | current, None -> current
  | current, Some (_, gain) -> current -. gain
