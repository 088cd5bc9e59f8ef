module Flt = Gncg_util.Flt
module ISet = Strategy.ISet
module Flat_adj = Gncg_graph.Flat_adj
module Wgraph = Gncg_graph.Wgraph
module Metric = Gncg_obs.Metric

let c_whatifs = Metric.Counter.make "greedy.whatif_sssp"
let c_swaps_composed = Metric.Counter.make "greedy.swaps_composed"

(* Both costs can be infinite (disconnected before and after) and near-ties
   are floating-point noise: the tolerant comparison classifies both as
   "no gain", consistently with the rest of the engine. *)
let gain_between before after = if Flt.approx_eq before after then 0.0 else before -. after

let move_gain ?graph host s ~agent mv =
  gain_between
    (Cost.agent_cost ?graph host s agent)
    (Cost.agent_cost host (Move.apply s ~agent mv) agent)

(* Distances are never NaN and never -0, so this compare-select returns
   the bits [Float.min] would. *)
let[@inline] fmin (a : float) b = if b < a then b else a

(* [Flt.sum] of the entrywise minimum of two rows, through [tmp]. *)
let min_sum a b tmp =
  for x = 0 to Array.length tmp - 1 do
    Array.unsafe_set tmp x (fmin (Array.unsafe_get a x) (Array.unsafe_get b x))
  done;
  Flt.sum tmp

(* One fold over the agent's candidates, in [Move.candidates] order.
   Every moved row is the entrywise minimum of two rows, bit for bit.  A
   simple path from the agent u leaves u once and never returns, so its
   first edge decides where it lies: the paths of G + (u,t) are those of
   G plus those of H_t, the network with every edge at u removed and
   (u,t) put in, and likewise for G - (u,o) + (u,t).  The kernel's row is
   the minimum, over paths, of the path's float length, so
     row(G + ut) = min(row(G), row(H_t))
     row(G - uo + ut) = min(row(G - uo), row(H_t)).
   Per agent: one pass on G, one what-if per sold owned edge and one pass
   on each H_t; a swap is one O(n) minimum and sum.  The adjacency is
   private to the call (parallel scans share nothing).  Each candidate's
   cost is [Cost.agent_cost] of the moved profile to the bit: the rows
   are [Dijkstra.sssp]'s, and the edited set is priced by
   [Cost.edge_cost_of].  Returns the current cost and the folded result. *)
let fold_gains ?(kinds = [ `Add; `Delete; `Swap ]) ?graph host s ~agent f init =
  let graph = match graph with Some g -> g | None -> Network.graph host s in
  let n = Strategy.n s in
  let adj = Flat_adj.of_wgraph graph in
  let owned_set = Strategy.strategy s agent in
  let owned = Array.of_list (ISet.elements owned_set) in
  let targets =
    Array.of_list (List.filter (Move.addable host s ~agent) (List.init n Fun.id))
  in
  let deg = Array.length owned and k = Array.length targets in
  let want_add = List.mem `Add kinds
  and want_del = List.mem `Delete kinds
  and want_swap = List.mem `Swap kinds in
  let cur = Array.make n 0.0 in
  Flat_adj.sssp_into adj agent cur;
  let cur_dist = Flt.sum cur in
  let before = Cost.edge_cost_of host agent owned_set +. cur_dist in
  (* Row of G(s) - (u,o) for each owned o; G(s)'s own row when the edge
     stays built (the other side buys it too, or it was never built). *)
  let del_rows =
    if not (want_del || (want_swap && k > 0)) then [||]
    else
      Array.map
        (fun o ->
          if Strategy.owns s o agent || not (Flat_adj.has_edge adj agent o) then cur
          else begin
            Metric.Counter.incr c_whatifs;
            let row = Array.make n 0.0 in
            Flat_adj.sssp_edited_into adj ~remove:(agent, o) agent row;
            row
          end)
        owned
  in
  (* One pass on each H_t fills the addition sums and, for each owned o,
     the swap sums, so no H_t row outlives its target. *)
  let add_sums = Array.make k 0.0 in
  let swap_sums = Array.make (if want_swap then deg * k else 0) 0.0 in
  if (want_add || (want_swap && deg > 0)) && k > 0 then begin
    Wgraph.iter_neighbors graph agent (fun v _ -> Flat_adj.remove_edge adj agent v);
    let h = Array.make n 0.0 and tmp = Array.make n 0.0 in
    Array.iteri
      (fun j t ->
        Metric.Counter.incr c_whatifs;
        Flat_adj.sssp_edited_into adj ~add:(agent, t, Host.weight host agent t) agent h;
        if want_add then add_sums.(j) <- min_sum cur h tmp;
        if want_swap then
          Array.iteri (fun i row -> swap_sums.((i * k) + j) <- min_sum row h tmp) del_rows)
      targets
  end;
  let edited_set = function
    | Move.Add v -> ISet.add v owned_set
    | Move.Delete v -> ISet.remove v owned_set
    | Move.Swap (o, t) -> ISet.add t (ISet.remove o owned_set)
  in
  let acc = ref init in
  let emit mv dist =
    let after = Cost.edge_cost_of host agent (edited_set mv) +. dist in
    acc := f !acc mv (gain_between before after)
  in
  if want_add then Array.iteri (fun j t -> emit (Move.Add t) add_sums.(j)) targets;
  if want_del then
    Array.iteri
      (fun i o ->
        let row = del_rows.(i) in
        emit (Move.Delete o) (if row == cur then cur_dist else Flt.sum row))
      owned;
  if want_swap then begin
    Metric.Counter.add c_swaps_composed (deg * k);
    Array.iteri
      (fun i o ->
        Array.iteri
          (fun j t -> emit (Move.Swap (o, t)) swap_sums.((i * k) + j))
          targets)
      owned
  end;
  (before, !acc)

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
