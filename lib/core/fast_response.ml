module Dijkstra = Gncg_graph.Dijkstra
module Flat_adj = Gncg_graph.Flat_adj
module Flt = Gncg_util.Flt
module ISet = Strategy.ISet
module Metric = Gncg_obs.Metric

(* Layer-2 probes: how often each evaluator runs, and how many stateful
   verdicts were decided without a what-if Dijkstra. *)
let c_stateless_evals = Metric.Counter.make "fast_response.stateless_evals"
let c_state_evals = Metric.Counter.make "fast_response.state_evals"
let c_rowlocal_verdicts = Metric.Counter.make "fast_response.rowlocal_verdicts"

(* Distance sum from the agent given the min-formula over an added edge
   (u,v): d'(x) = min(d_u(x), w + d_v(x)) — one streaming pass, nothing
   materialized. *)
let dist_sum_with_added_edge d_u d_v w = Flt.sum_min_add d_u w d_v

(* Near-ties are classified with the engine tolerance, like everywhere
   else: a candidate within [Flt.eps] of the incumbent cost is "no gain"
   (this also absorbs inf - inf for disconnected states). *)
let gain_between cur_cost cost' =
  if Flt.approx_eq cost' cur_cost then 0.0 else cur_cost -. cost'

(* One flat adjacency of G(s) serves every candidate: the mover's row
   and each addition target's row are plain passes into reused rows (the
   network is unmodified there), deletions and swaps one what-if pass
   each.  The rows equal [Dijkstra.sssp]'s bit for bit. *)
let move_gains ?kinds host s ~agent =
  Metric.Counter.incr c_stateless_evals;
  let adj = Flat_adj.of_wgraph (Network.graph host s) in
  let n = Strategy.n s in
  let d_u = Array.make n 0.0 and row = Array.make n 0.0 in
  Flat_adj.sssp_into adj agent d_u;
  let cur_dist = Flt.sum d_u in
  let cur_edge = Cost.agent_edge_cost host s agent in
  let cur_cost = cur_edge +. cur_dist in
  let alpha = Host.alpha host in
  let dist_after = Move.dist_sum_after adj host s ~agent ~current:cur_dist row in
  let gain_of = function
    | Move.Add v ->
      let w = Host.weight host agent v in
      Flat_adj.sssp_into adj v row;
      let cost' = cur_edge +. (alpha *. w) +. dist_sum_with_added_edge d_u row w in
      gain_between cur_cost cost'
    | Move.Delete v as mv ->
      let w = Host.weight host agent v in
      (* The built edge (u,v) persists after u sells it iff v also buys it. *)
      if Strategy.owns s v agent then alpha *. w
      else gain_between cur_cost (cur_edge -. (alpha *. w) +. dist_after mv)
    | Move.Swap (old_t, new_t) as mv ->
      let w_old = Host.weight host agent old_t in
      let w_new = Host.weight host agent new_t in
      gain_between cur_cost (cur_edge +. (alpha *. (w_new -. w_old)) +. dist_after mv)
  in
  List.map (fun mv -> (mv, gain_of mv)) (Move.candidates ?kinds host s ~agent)

let pick_best gains =
  List.fold_left
    (fun acc (mv, gain) ->
      match acc with
      | Some (_, g) when g >= gain -> acc
      | _ when gain > Flt.eps -> Some (mv, gain)
      | _ -> acc)
    None gains

let best_move ?kinds host s ~agent = pick_best (move_gains ?kinds host s ~agent)

(* State-based evaluation: no graph build, no SSSP for the mover or for
   addition targets — their rows live in the state's flat matrix, so an
   addition is one streaming O(n) kernel with no row materialized.
   Deletions and swaps still need one what-if Dijkstra each (removal
   invalidates the precomputed rows), run through the state's scratch
   buffers (no fresh heap, no fresh rows). *)
let move_gains_state ?kinds st ~agent =
  let host = Net_state.host st in
  let s = Net_state.profile st in
  let cur_dist = Net_state.agent_dist_sum st agent in
  let cur_edge = Cost.agent_edge_cost host s agent in
  let cur_cost = cur_edge +. cur_dist in
  let alpha = Host.alpha host in
  let edge_survives_sale v = Strategy.owns s v agent in
  let gain_of = function
    | Move.Add v ->
      let w = Host.weight host agent v in
      let cost' = cur_edge +. (alpha *. w) +. Net_state.dist_sum_with_edge st agent v w in
      gain_between cur_cost cost'
    | Move.Delete v ->
      let w = Host.weight host agent v in
      if edge_survives_sale v then alpha *. w
      else begin
        let dist' = Net_state.sssp_edited_sum st ~remove:(agent, v) agent in
        gain_between cur_cost (cur_edge -. (alpha *. w) +. dist')
      end
    | Move.Swap (old_t, new_t) ->
      let w_old = Host.weight host agent old_t in
      let w_new = Host.weight host agent new_t in
      if edge_survives_sale old_t then
        (* The sold edge stays (other side owns it too): the swap is a pure
           insertion, evaluated by the O(n) formula. *)
        gain_between cur_cost
          (cur_edge
          +. (alpha *. (w_new -. w_old))
          +. Net_state.dist_sum_with_edge st agent new_t w_new)
      else begin
        let dist' =
          Net_state.sssp_edited_sum st ~remove:(agent, old_t) ~add:(agent, new_t, w_new)
            agent
        in
        gain_between cur_cost (cur_edge +. (alpha *. (w_new -. w_old)) +. dist')
      end
  in
  List.map (fun mv -> (mv, gain_of mv)) (Move.candidates ?kinds host s ~agent)

(* Best improving move, plus whether the verdict is "row-local": decided
   entirely from live matrix rows and the profile, with zero what-if
   Dijkstras.  Row-local verdicts are a pure function of (a) the agent's
   strategy entry and co-ownership pairs involving the agent and (b) the
   distance rows of the agent and of its eligible targets — so a dynamics
   or equilibrium scan may reuse them verbatim while those inputs are
   untouched (see Dynamics).

   The candidate enumeration below is Move.candidates inlined — additions
   in ascending target order, then deletions in ascending owned order,
   then swaps (owned ascending × addable ascending) — and ties keep the
   earlier candidate, so the result is identical to folding pick over the
   materialized list (tested). *)
let best_move_state_verdict ?(kinds = [ `Add; `Delete; `Swap ]) st ~agent =
  Metric.Counter.incr c_state_evals;
  let host = Net_state.host st in
  let s = Net_state.profile st in
  let n = Strategy.n s in
  let cur_dist = Net_state.agent_dist_sum st agent in
  let cur_edge = Cost.agent_edge_cost host s agent in
  let cur_cost = cur_edge +. cur_dist in
  let alpha = Host.alpha host in
  let edge_survives_sale v = Strategy.owns s v agent in
  let addable v = Move.addable host s ~agent v in
  let owned = Strategy.strategy s agent in
  (* Σ_x min(d_u(x), w + d_v(x)) per addition target, memoized (NaN =
     unset; a distance sum is never NaN): shared by the Add candidates
     and by every swap bound below. *)
  let added_memo = Array.make n Float.nan in
  let added_dist v w =
    let x = Array.unsafe_get added_memo v in
    if Float.is_nan x then begin
      let x = Net_state.dist_sum_with_edge st agent v w in
      Array.unsafe_set added_memo v x;
      x
    end
    else x
  in
  let rowlocal = ref true in
  let best = ref None in
  let pick mv gain =
    match !best with
    | Some (_, g) when g >= gain -> ()
    | _ -> if gain > Flt.eps then best := Some (mv, gain)
  in
  let best_gain () = match !best with Some (_, g) -> g | None -> Flt.eps in
  if List.mem `Add kinds then
    for v = 0 to n - 1 do
      if addable v then begin
        let w = Host.weight host agent v in
        let cost' = cur_edge +. (alpha *. w) +. added_dist v w in
        pick (Move.Add v) (gain_between cur_cost cost')
      end
    done;
  (* Branch-and-bound over deletions and swaps: a what-if Dijkstra is
     spent only on moves whose admissible gain bound beats the incumbent
     best.  Deleting an edge gains at most its price back (the removal
     can only lengthen distances); a swap gains at most its pure-
     insertion relaxation.  Skipping a bounded-out move is exact: its
     true gain can never replace the incumbent. *)
  if List.mem `Delete kinds then
    ISet.iter
      (fun v ->
        let w = Host.weight host agent v in
        if edge_survives_sale v then pick (Move.Delete v) (alpha *. w)
        else if alpha *. w > best_gain () then begin
          rowlocal := false;
          let dist' = Net_state.sssp_edited_sum st ~remove:(agent, v) agent in
          pick (Move.Delete v) (gain_between cur_cost (cur_edge -. (alpha *. w) +. dist'))
        end)
      owned;
  if List.mem `Swap kinds then begin
    (* Per old endpoint, the deletion what-if row r_del(x) = d_{G-e}(u,x)
       is computed at most once and reused across every new endpoint: the
       refined bound Σ_x min(r_del(x), w_new + d(new_t,x)) is a valid
       lower bound on the swap distance sum (d_{G-e} >= d on the new
       endpoint's row) and is much tighter than the pure-insertion bound,
       so most swap Dijkstras are pruned away. *)
    let r_del = Array.make n Float.infinity in
    let r_del_for = ref (-1) in
    ISet.iter
      (fun old_t ->
        let w_old = Host.weight host agent old_t in
        let survives = edge_survives_sale old_t in
        for new_t = 0 to n - 1 do
          if addable new_t then begin
            let w_new = Host.weight host agent new_t in
            let edge_delta = alpha *. (w_new -. w_old) in
            let insertion_cost = cur_edge +. edge_delta +. added_dist new_t w_new in
            if survives then
              (* The sold edge stays (other side owns it too): the swap is
                 a pure insertion, evaluated exactly by the O(n) formula. *)
              pick (Move.Swap (old_t, new_t)) (gain_between cur_cost insertion_cost)
            else if cur_cost -. insertion_cost > best_gain () then begin
              rowlocal := false;
              if !r_del_for <> old_t then begin
                Net_state.sssp_edited_into st ~remove:(agent, old_t) agent r_del;
                r_del_for := old_t
              end;
              let refined_cost =
                cur_edge +. edge_delta +. Net_state.min_sum_against st r_del new_t w_new
              in
              if cur_cost -. refined_cost > best_gain () then begin
                let dist' =
                  Net_state.sssp_edited_sum st ~remove:(agent, old_t)
                    ~add:(agent, new_t, w_new) agent
                in
                pick (Move.Swap (old_t, new_t)) (gain_between cur_cost (cur_edge +. edge_delta +. dist'))
              end
            end
          end
        done)
      owned
  end;
  if !rowlocal then Metric.Counter.incr c_rowlocal_verdicts;
  (!best, !rowlocal)

let best_move_state ?kinds st ~agent = fst (best_move_state_verdict ?kinds st ~agent)

(* --- geometric shortcut ------------------------------------------------- *)

let c_nearest_evals = Metric.Counter.make "fast_response.nearest_evals"

let nearest_addable_target st ~agent =
  let host = Net_state.host st in
  let s = Net_state.profile st in
  Net_state.nearest_target st ~accept:(fun v -> Move.addable host s ~agent v) agent

(* When the state's backend carries a geometric index (the R^d oracle's
   k-d tree), rank addable targets by host distance without the O(n)
   scan: the nearest addable point is the natural greedy candidate —
   its edge is the cheapest to buy — and its exact gain is one O(n)
   streaming kernel.  This is a heuristic shortlist (the gain-optimal
   add can differ), so callers needing exactness keep the full scan. *)
let best_add_nearest st ~agent =
  match nearest_addable_target st ~agent with
  | None -> None
  | Some (v, w) ->
    Metric.Counter.incr c_nearest_evals;
    let host = Net_state.host st in
    let cur_cost =
      Cost.agent_edge_cost host (Net_state.profile st) agent
      +. Net_state.agent_dist_sum st agent
    in
    let alpha = Host.alpha host in
    let cost' =
      (cur_cost -. Net_state.agent_dist_sum st agent)
      +. (alpha *. w)
      +. Net_state.dist_sum_with_edge st agent v w
    in
    let gain = gain_between cur_cost cost' in
    if gain > Flt.eps then Some (Move.Add v, gain) else None

let round_add_gains host s =
  let g = Network.graph host s in
  let n = Strategy.n s in
  let apsp = Dijkstra.apsp g in
  let alpha = Host.alpha host in
  let acc = ref [] in
  for u = 0 to n - 1 do
    let cur_dist = Flt.sum apsp.(u) in
    List.iter
      (fun mv ->
        match mv with
        | Move.Add v ->
          let w = Host.weight host u v in
          let dist' = dist_sum_with_added_edge apsp.(u) apsp.(v) w in
          (* Same tolerance discipline as the single-move paths: ties and
             inf - inf both classify as "no gain" through gain_between. *)
          let gain = gain_between cur_dist ((alpha *. w) +. dist') in
          if gain > Flt.eps then acc := (u, v, gain) :: !acc
        | Move.Delete _ | Move.Swap _ -> ())
      (Move.candidates ~kinds:[ `Add ] host s ~agent:u)
  done;
  List.rev !acc
