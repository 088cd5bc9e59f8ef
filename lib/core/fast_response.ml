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

(* Sizes the state's evaluator workspace for [n] vertices and [deg]
   owned edges, and marks every deletion row stale. *)
let prepare (sc : Net_state.scratch) n deg =
  if Array.length sc.targets < n then begin
    sc.targets <- Array.make n 0;
    sc.weights <- Array.make n 0.0;
    sc.sums <- Array.make n 0.0
  end;
  let have = Array.length sc.del_rows in
  if have < deg then begin
    let cap = max deg (2 * have) in
    sc.del_rows <-
      Array.init cap (fun i -> if i < have then sc.del_rows.(i) else Array.make n Float.infinity);
    sc.del_for <- Array.make cap (-1)
  end;
  Array.fill sc.del_for 0 deg (-1)

(* Best improving move, plus whether the verdict is "row-local": decided
   entirely from live matrix rows and the profile, with zero what-if
   Dijkstras.  Row-local verdicts are a pure function of (a) the agent's
   strategy entry and co-ownership pairs involving the agent and (b) the
   distance rows of the agent and of its eligible targets — so
   Dynamics.run may reuse them verbatim while those inputs are
   untouched.

   The candidate enumeration below is Move.candidates inlined — additions
   in ascending target order, then deletions in ascending owned order,
   then swaps (owned ascending × addable ascending) — and ties keep the
   earlier candidate, so the result is identical to folding pick over the
   materialized list (tested).  Every array lives in the state's
   workspace: an evaluation allocates no array. *)
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
  let owned = Strategy.strategy s agent in
  let deg = ISet.cardinal owned in
  let want_swap = List.mem `Swap kinds in
  let sc = Net_state.scratch st in
  prepare sc n deg;
  (* The addable targets in ascending order, their weights, and their
     insertion sums Σ_x min(d_u(x), w + d_v(x)), shared by the Add
     candidates and by every swap bound below.  One batched call fills
     them, exactly when some candidate reads them: when additions are
     evaluated, or swaps are and the agent owns an edge. *)
  let k =
    if List.mem `Add kinds || (want_swap && deg > 0) then begin
      let k = ref 0 in
      for v = 0 to n - 1 do
        if Move.addable host s ~agent v then begin
          Array.unsafe_set sc.targets !k v;
          Array.unsafe_set sc.weights !k (Host.weight host agent v);
          incr k
        end
      done;
      Net_state.dist_sums_with_edges st agent sc.targets sc.weights !k sc.sums;
      !k
    end
    else 0
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
    for i = 0 to k - 1 do
      let w = sc.weights.(i) in
      let cost' = cur_edge +. (alpha *. w) +. sc.sums.(i) in
      pick (Move.Add sc.targets.(i)) (gain_between cur_cost cost')
    done;
  (* The deletion what-if row r_del(x) = d_{G-e}(u,x) of the [i]-th owned
     edge e = (u, old_t), computed at most once per evaluation: the
     delete loop sums it, the swap loop bounds with it. *)
  let del_row i old_t =
    let row = sc.del_rows.(i) in
    if sc.del_for.(i) <> old_t then begin
      Net_state.sssp_edited_into st ~remove:(agent, old_t) agent row;
      sc.del_for.(i) <- old_t
    end;
    row
  in
  (* Branch-and-bound over deletions and swaps: a what-if Dijkstra is
     spent only on moves whose admissible gain bound beats the incumbent
     best.  Deleting an edge gains at most its price back (the removal
     can only lengthen distances); a swap gains at most its pure-
     insertion relaxation.  Skipping a bounded-out move is exact: its
     true gain can never replace the incumbent. *)
  if List.mem `Delete kinds then begin
    let i = ref 0 in
    ISet.iter
      (fun v ->
        let w = Host.weight host agent v in
        if edge_survives_sale v then pick (Move.Delete v) (alpha *. w)
        else if alpha *. w > best_gain () then begin
          rowlocal := false;
          let dist' = Flt.sum (del_row !i v) in
          pick (Move.Delete v) (gain_between cur_cost (cur_edge -. (alpha *. w) +. dist'))
        end;
        incr i)
      owned
  end;
  if want_swap then begin
    (* The refined bound Σ_x min(r_del(x), w_new + d(new_t,x)) is a valid
       lower bound on the swap distance sum (d_{G-e} >= d on the new
       endpoint's row) and is much tighter than the pure-insertion bound,
       so most swap Dijkstras are pruned away. *)
    let i = ref 0 in
    ISet.iter
      (fun old_t ->
        let w_old = Host.weight host agent old_t in
        let survives = edge_survives_sale old_t in
        for j = 0 to k - 1 do
          let new_t = sc.targets.(j) and w_new = sc.weights.(j) in
          let edge_delta = alpha *. (w_new -. w_old) in
          let insertion_cost = cur_edge +. edge_delta +. sc.sums.(j) in
          if survives then
            (* The sold edge stays (other side owns it too): the swap is
               a pure insertion, evaluated exactly by the O(n) formula. *)
            pick (Move.Swap (old_t, new_t)) (gain_between cur_cost insertion_cost)
          else if cur_cost -. insertion_cost > best_gain () then begin
            rowlocal := false;
            let refined_cost =
              cur_edge +. edge_delta +. Net_state.min_sum_against st (del_row !i old_t) new_t w_new
            in
            if cur_cost -. refined_cost > best_gain () then begin
              let dist' =
                Net_state.sssp_edited_sum st ~remove:(agent, old_t)
                  ~add:(agent, new_t, w_new) agent
              in
              pick (Move.Swap (old_t, new_t)) (gain_between cur_cost (cur_edge +. edge_delta +. dist'))
            end
          end
        done;
        incr i)
      owned
  end;
  if !rowlocal then Metric.Counter.incr c_rowlocal_verdicts;
  (!best, !rowlocal)
