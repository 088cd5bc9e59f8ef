module Flt = Gncg_util.Flt
module ISet = Strategy.ISet
module Metric = Gncg_obs.Metric

(* Layer-2 probes: how often the state evaluator runs, and how many
   verdicts were decided without a what-if Dijkstra. *)
let c_state_evals = Metric.Counter.make "fast_response.state_evals"
let c_rowlocal_verdicts = Metric.Counter.make "fast_response.rowlocal_verdicts"

(* Near-ties are classified with the engine tolerance, like everywhere
   else: a candidate within [Flt.eps] of the incumbent cost is "no gain"
   (this also absorbs inf - inf for disconnected states). *)
let gain_between cur_cost cost' =
  if Flt.approx_eq cost' cur_cost then 0.0 else cur_cost -. cost'

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
