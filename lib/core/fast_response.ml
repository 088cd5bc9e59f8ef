module Flt = Gncg_util.Flt
module ISet = Strategy.ISet
module Metric = Gncg_obs.Metric

(* Layer-2 probes: how often the state evaluator runs, and how many
   verdicts were decided without a what-if Dijkstra. *)
let c_state_evals = Metric.Counter.make "fast_response.state_evals"
let c_rowlocal_verdicts = Metric.Counter.make "fast_response.rowlocal_verdicts"

(* How many tight targets' insertion sums were never computed, and how
   many were forced through the exact kernel because their bound could
   not settle a decision. *)
let c_tight_targets = Metric.Counter.make "fast_response.tight_targets"
let c_tight_exact = Metric.Counter.make "fast_response.tight_exact"

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
    sc.sums <- Array.make n 0.0;
    sc.known <- Array.make n false;
    sc.loose <- Array.make n 0
  end;
  let have = Array.length sc.del_rows in
  if have < deg then begin
    let cap = max deg (2 * have) in
    sc.del_rows <-
      Array.init cap (fun i -> if i < have then sc.del_rows.(i) else Array.make n Float.infinity);
    sc.del_for <- Array.make cap (-1)
  end;
  Array.fill sc.del_for 0 deg (-1)

(* The rounding margin Δ of a tight target's insertion sum: when the
   stored d(u,v) <= w, the exact Kahan sum Σ_x min(d_u(x), w + d_v(x))
   lies within Δ = [Flt.stored_margin] at 2n·w + cur_dist of cur_dist,
   the Kahan sum of d_u.  In exact arithmetic the triangle inequality
   makes the two sums equal; the stored matrix meets it only up to the
   relative error of its entries, which with the two Kahan sums stays
   below half of Δ (ALGORITHMS.md, "Tight targets").  Copied here with
   float annotations so that it inlines unboxed; test/test_tight.ml
   checks the copy against [Flt] bit for bit. *)
let[@inline] tight_margin n (cur_dist : float) (w : float) =
  let nf = float_of_int n in
  8.0 *. nf *. epsilon_float *. ((2.0 *. nf *. w) +. cur_dist)

(* [Move.addable] for every vertex in ascending order.  The agent's
   network neighbours are flagged once from the store's adjacency (for a
   finite weight, exactly the pairs [Strategy.edge_in_network] finds),
   then the host's weight row is scanned, read unboxed: no set lookup
   and no float crossing a call per target. *)
let addable_into st ~agent targets weights =
  let row = Host.weight_row (Net_state.host st) agent in
  let n = Array.length row in
  if Array.length targets < n || Array.length weights < n then
    invalid_arg "Fast_response.addable_into: arrays shorter than n";
  let sc = Net_state.scratch st in
  if Array.length sc.adjacent < n then sc.adjacent <- Array.make n false;
  let adjacent = sc.adjacent in
  Net_state.mark_neighbours st agent adjacent true;
  let k = ref 0 in
  for v = 0 to n - 1 do
    let w = Array.unsafe_get row v in
    if v <> agent && w < Float.infinity && not (Array.unsafe_get adjacent v) then begin
      Array.unsafe_set targets !k v;
      Array.unsafe_set weights !k w;
      incr k
    end
  done;
  Net_state.mark_neighbours st agent adjacent false;
  !k

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
   earlier candidate, so the result is identical to folding a strict-[>]
   pick over the materialized list (tested).  Every array lives in the
   state's workspace: an evaluation allocates no array. *)
let best_move_state_verdict ?(kinds = [ `Add; `Delete; `Swap ]) st ~agent =
  Metric.Counter.incr c_state_evals;
  let host = Net_state.host st in
  let s = Net_state.profile st in
  let n = Strategy.n s in
  let cur_dist = Net_state.agent_dist_sum st agent in
  let cur_edge = Cost.agent_edge_cost host s agent in
  let cur_cost = cur_edge +. cur_dist in
  let alpha = Host.alpha host in
  let wrow = Host.weight_row host agent in
  let edge_survives_sale v = Strategy.owns s v agent in
  let owned = Strategy.strategy s agent in
  let deg = ISet.cardinal owned in
  let want_swap = List.mem `Swap kinds in
  let sc = Net_state.scratch st in
  prepare sc n deg;
  (* The addable targets in ascending order and their weights, read by
     the Add candidates and by every swap, exactly when some candidate
     reads them: when additions are evaluated, or swaps are and the agent
     owns an edge.  A loose target (d(u,v) > w) gets its insertion sum
     Σ_x min(d_u(x), w + d_v(x)) from one batched call over the loose
     positions, written to its own slot.  A tight one (d(u,v) <= w) gets
     none: its sum lies within [tight_margin] of cur_dist, and each
     reader below first asks whether that bound already settles its
     decision.  When the agent's cost is infinite every target counts as
     loose. *)
  let k = ref 0 and kl = ref 0 in
  if List.mem `Add kinds || (want_swap && deg > 0) then begin
    k := addable_into st ~agent sc.targets sc.weights;
    if cur_cost < Float.infinity then
      kl := Net_state.loose_targets st agent sc.targets sc.weights !k sc.loose
    else begin
      for i = 0 to !k - 1 do
        sc.loose.(i) <- i
      done;
      kl := !k
    end;
    Net_state.dist_sums_with_edges st agent sc.targets sc.weights sc.loose !kl sc.sums;
    Array.fill sc.known 0 !k false;
    for i = 0 to !kl - 1 do
      sc.known.(sc.loose.(i)) <- true
    done
  end;
  let k = !k in
  (* A tight target's exact sum, computed on first need and kept. *)
  let tight_exact = ref 0 in
  let exact_sum j =
    if not sc.known.(j) then begin
      sc.sums.(j) <- Net_state.dist_sum_with_edge st agent sc.targets.(j) sc.weights.(j);
      sc.known.(j) <- true;
      incr tight_exact
    end
  in
  let rowlocal = ref true in
  (* Each candidate's gain is compared with the incumbent's first, and
     [take] builds the move only for a new incumbent: a strict [>], so
     ties keep the earlier candidate. *)
  let best_move = ref None and best_gain = ref Flt.eps in
  let take mv gain =
    best_move := Some mv;
    best_gain := gain
  in
  (* A candidate whose distance sum is a tight target's is skipped when
     even the lowest sum its bound allows leaves a gain of at most the
     incumbent's: it could not be taken.  Costs are monotone in the
     sum, so the bound's end decides for every sum inside it. *)
  if List.mem `Add kinds then
    for i = 0 to k - 1 do
      let w = sc.weights.(i) in
      let edge' = cur_edge +. (alpha *. w) in
      if sc.known.(i)
         || cur_cost -. (edge' +. (cur_dist -. tight_margin n cur_dist w)) > !best_gain
      then begin
        exact_sum i;
        let g = gain_between cur_cost (edge' +. sc.sums.(i)) in
        if g > !best_gain then take (Move.Add sc.targets.(i)) g
      end
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
        let w = wrow.(v) in
        let bound = alpha *. w in
        if bound > !best_gain then
          if edge_survives_sale v then take (Move.Delete v) bound
          else begin
            rowlocal := false;
            let dist' = Flt.sum (del_row !i v) in
            let g = gain_between cur_cost (cur_edge -. bound +. dist') in
            if g > !best_gain then take (Move.Delete v) g
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
        let w_old = wrow.(old_t) in
        let survives = edge_survives_sale old_t in
        for j = 0 to k - 1 do
          let new_t = sc.targets.(j) and w_new = sc.weights.(j) in
          let edge_delta = alpha *. (w_new -. w_old) in
          let edge' = cur_edge +. edge_delta in
          if survives then begin
            (* The sold edge stays (other side owns it too): the swap is
               a pure insertion, evaluated exactly by the O(n) formula. *)
            if sc.known.(j)
               || cur_cost -. (edge' +. (cur_dist -. tight_margin n cur_dist w_new)) > !best_gain
            then begin
              exact_sum j;
              let g = gain_between cur_cost (edge' +. sc.sums.(j)) in
              if g > !best_gain then take (Move.Swap (old_t, new_t)) g
            end
          end
          else begin
            (* The pre-filter cur_cost - insertion_cost > best.  A tight
               target's bound settles it when both its ends agree. *)
            let passes =
              if sc.known.(j) then cur_cost -. (edge' +. sc.sums.(j)) > !best_gain
              else begin
                let margin = tight_margin n cur_dist w_new in
                if cur_cost -. (edge' +. (cur_dist +. margin)) > !best_gain then true
                else if cur_cost -. (edge' +. (cur_dist -. margin)) <= !best_gain then false
                else begin
                  exact_sum j;
                  cur_cost -. (edge' +. sc.sums.(j)) > !best_gain
                end
              end
            in
            if passes then begin
              rowlocal := false;
              let refined_cost =
                edge' +. Net_state.min_sum_against st (del_row !i old_t) new_t w_new
              in
              if cur_cost -. refined_cost > !best_gain then begin
                let dist' =
                  Net_state.sssp_edited_sum st ~remove:(agent, old_t)
                    ~add:(agent, new_t, w_new) agent
                in
                let g = gain_between cur_cost (edge' +. dist') in
                if g > !best_gain then take (Move.Swap (old_t, new_t)) g
              end
            end
          end
        done;
        incr i)
      owned
  end;
  Metric.Counter.add c_tight_targets (k - !kl - !tight_exact);
  Metric.Counter.add c_tight_exact !tight_exact;
  if !rowlocal then Metric.Counter.incr c_rowlocal_verdicts;
  (Option.map (fun mv -> (mv, !best_gain)) !best_move, !rowlocal)
