module Flt = Gncg_util.Flt
module ISet = Strategy.ISet
module Flat_adj = Gncg_graph.Flat_adj
module Metric = Gncg_obs.Metric

let c_whatifs = Metric.Counter.make "greedy.whatif_sssp"
let c_swaps_composed = Metric.Counter.make "greedy.swaps_composed"
let c_settled = Metric.Counter.make "greedy.settled"
let c_sums_reused = Metric.Counter.make "greedy.sums_reused"

(* Both costs can be infinite (disconnected before and after) and near-ties
   are floating-point noise: the tolerant comparison classifies both as
   "no gain", consistently with the rest of the engine. *)
let gain_between before after = if Flt.approx_eq before after then 0.0 else before -. after

let move_gain ?graph host s ~agent mv =
  gain_between
    (Cost.agent_cost ?graph host s agent)
    (Cost.agent_cost host (Move.apply s ~agent mv) agent)

(* Distances are never NaN and never -0, so these compare-selects return
   the bits [Float.min] and [Float.max] would. *)
let[@inline] fmin (a : float) b = if b < a then b else a
let[@inline] fmax (a : float) b = if b > a then b else a

(* [Flt.sum] of the entrywise minimum of two rows, through [tmp]. *)
let min_sum a b tmp =
  for x = 0 to Array.length tmp - 1 do
    Array.unsafe_set tmp x (fmin (Array.unsafe_get a x) (Array.unsafe_get b x))
  done;
  Flt.sum tmp

(* The same sum when [h] is +inf off [reached.(0 .. k-1)]: unless a
   reached vertex lies below the row, the minimum is the row itself and
   its sum is [row_sum]. *)
let min_sum_reached row row_sum h reached k tmp =
  let i = ref 0 in
  while
    !i < k
    &&
    let x = Array.unsafe_get reached !i in
    not (Array.unsafe_get h x < Array.unsafe_get row x)
  do
    incr i
  done;
  if !i < k then min_sum row h tmp
  else begin
    Metric.Counter.incr c_sums_reused;
    row_sum
  end

(* One fold over the agent's candidates, in [Move.candidates] order.
   Every moved row is the entrywise minimum of two rows, bit for bit.  A
   simple path from the agent u leaves u once and never returns, so its
   first edge decides where it lies: the paths of G + (u,t) are those of
   G plus those of H_t, the network with every edge at u removed and
   (u,t) put in, and likewise for G - (u,o) + (u,t).  The kernel's row is
   the minimum, over paths, of the path's float length, so
     row(G + ut) = min(row(G), row(H_t))
     row(G - uo + ut) = min(row(G - uo), row(H_t)).
   Per agent: one pass on G, one what-if per sold owned edge and one
   bounded pass per H_t; a swap is one minimum and sum.  Each what-if
   starts from a copy of row(G), which [Flat_adj.sssp_edited_into]
   settles into the fresh pass's row bit for bit.

   The H_t passes settle only values below the envelope R, the entrywise
   maximum of row(G) and every row they are min'ed with.  Past its first
   edge an H_t path lies in G without u's edges, which every such row's
   network contains.  If the path reaches z at a value >= R(z), each
   row's own path to z, extended by the same edges, stays at or below it
   from there on (a float sum is monotone in its running value); so a
   vertex whose H_t value is below R is reached through vertices below R
   only, and gets its exact value, while every vertex the bounded pass
   leaves at +inf has row(H_t)(x) >= R(x), where the minimum is the row
   either way.  A candidate whose row no reached vertex improves takes
   the row's sum.

   [adj], the flat form of G(s), belongs to the call, which edits it.
   Each candidate's cost is [Cost.agent_cost] of the moved profile to
   the bit: the rows are [Dijkstra.sssp]'s, and the edited set is priced
   by [Cost.edge_cost_of].  Returns the current cost and the folded
   result. *)
let fold_gains ?(kinds = [ `Add; `Delete; `Swap ]) adj host s ~agent f init =
  let n = Strategy.n s in
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
            let row = Array.copy cur in
            ignore (Flat_adj.sssp_edited_into adj ~remove:(agent, o) agent row);
            row
          end)
        owned
  in
  let del_sums = Array.map (fun row -> if row == cur then cur_dist else Flt.sum row) del_rows in
  (* One pass on each H_t fills the addition sums and, for each owned o,
     the swap sums, so no H_t row outlives its target. *)
  let add_sums = Array.make k 0.0 in
  let swap_sums = Array.make (if want_swap then deg * k else 0) 0.0 in
  if (want_add || (want_swap && deg > 0)) && k > 0 then begin
    Flat_adj.isolate adj agent;
    let envelope = Array.copy cur in
    if want_swap then
      Array.iter
        (fun row ->
          for x = 0 to n - 1 do
            envelope.(x) <- fmax envelope.(x) row.(x)
          done)
        del_rows;
    let h = Array.make n Float.infinity and reached = Array.make n 0 in
    let tmp = Array.make n 0.0 in
    Array.iteri
      (fun j t ->
        Metric.Counter.incr c_whatifs;
        (* A pass on H_t from u reaches t at 0 + w(u,t) and continues on
           G without u's edges. *)
        let start = 0.0 +. Host.weight host agent t in
        let r = Flat_adj.sssp_bounded_into adj ~src:t ~start ~bound:envelope h reached in
        Metric.Counter.add c_settled r;
        if want_add then add_sums.(j) <- min_sum_reached cur cur_dist h reached r tmp;
        if want_swap then
          Array.iteri
            (fun i row ->
              swap_sums.((i * k) + j) <- min_sum_reached row del_sums.(i) h reached r tmp)
            del_rows;
        for i = 0 to r - 1 do
          h.(reached.(i)) <- Float.infinity
        done)
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
  if want_del then Array.iteri (fun i o -> emit (Move.Delete o) del_sums.(i)) owned;
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

let build_adj ?graph host s =
  Flat_adj.of_wgraph (match graph with Some g -> g | None -> Network.graph host s)

(* A shared [adj] is copied, never edited, so parallel scans can share it. *)
let scan ?kinds ?adj host s ~agent =
  let adj = match adj with Some adj -> Flat_adj.copy adj | None -> build_adj host s in
  fold_gains ?kinds adj host s ~agent pick None

let gains ?kinds host s ~agent =
  let current, rev =
    fold_gains ?kinds (build_adj host s) host s ~agent (fun acc mv g -> (mv, g) :: acc) []
  in
  (current, List.rev rev)

let best_move ?kinds ?graph host s ~agent =
  snd (fold_gains ?kinds (build_adj ?graph host s) host s ~agent pick None)

let best_single_move_cost ?kinds ?graph host s ~agent =
  match fold_gains ?kinds (build_adj ?graph host s) host s ~agent pick None with
  | current, None -> current
  | current, Some (_, gain) -> current -. gain
