module Flt = Gncg_util.Flt
module Incr_apsp = Gncg_graph.Incr_apsp
module ISet = Strategy.ISet
module Metric = Gncg_obs.Metric

(* Layer-2 probes: how often the state evaluator runs, and how many
   verdicts were decided without a what-if Dijkstra. *)
let c_state_evals = Metric.Counter.make "fast_response.state_evals"
let c_rowlocal_verdicts = Metric.Counter.make "fast_response.rowlocal_verdicts"

(* How many addable targets' insertion sums were decided from their bound
   alone and how many needed the exact Kahan sum, and how many deletion
   what-ifs the neighbour floor made unnecessary. *)
let c_bounded_sums = Metric.Counter.make "fast_response.bounded_sums"
let c_exact_sums = Metric.Counter.make "fast_response.exact_sums"
let c_whatifs_avoided = Metric.Counter.make "fast_response.whatifs_avoided"

(* Near-ties are classified with the engine tolerance, like everywhere
   else: a candidate within [Flt.eps] of the incumbent cost is "no gain"
   (this also absorbs inf - inf for disconnected states). *)
let gain_between cur_cost cost' =
  if Flt.approx_eq cost' cur_cost then 0.0 else cur_cost -. cost'

(* Sizes the state's evaluator workspace for [n] vertices and [deg]
   owned edges, and marks every deletion row and floor stale. *)
let prepare (sc : Net_state.scratch) n deg =
  if Array.length sc.targets < n then begin
    sc.targets <- Array.make n 0;
    sc.weights <- Array.make n 0.0;
    sc.sums <- Array.make n 0.0;
    sc.margins <- Array.make n 0.0;
    sc.known <- Array.make n false;
    sc.loose <- Array.make n 0;
    sc.near_best <- Array.make n 0.0;
    sc.near_arg <- Array.make n 0;
    sc.near_second <- Array.make n 0.0
  end;
  let have = Array.length sc.del_rows in
  if have < deg then begin
    let cap = max deg (2 * have) in
    let grow rows = Array.init cap (fun i -> if i < have then rows.(i) else Array.make n Float.infinity) in
    sc.del_rows <- grow sc.del_rows;
    sc.floor_rows <- grow sc.floor_rows;
    sc.del_for <- Array.make cap (-1);
    sc.del_sums <- Array.make cap 0.0;
    sc.floor_for <- Array.make cap (-1);
    sc.floor_sums <- Array.make cap 0.0
  end;
  Array.fill sc.del_for 0 deg (-1);
  Array.fill sc.floor_for 0 deg (-1)

(* The rounding model's two margins, [Flt.stored_margin] and
   [Flt.sum_margin] at k = n, copied here with float annotations so that
   pricing a target or a swap boxes no float; test/test_tight.ml checks
   each copy against [Flt] bit for bit.  They associate left to right,
   as [Flt] does. *)
let[@inline] stored_margin n (mag : float) = 8.0 *. float_of_int n *. epsilon_float *. mag

let[@inline] sum_margin n (mag : float) = 2.0 *. float_of_int n *. epsilon_float *. mag

(* Where the gain cur_cost − (edge' + S) lies against [best] for every
   sum S within [margin] of [centre]: 1 when it beats [best] for all of
   them, -1 when for none, 0 when the bound cannot tell.  Both ends are
   the decision's own expression at the interval's ends, and a float
   expression monotone in S, so the bound's verdict is the exact one
   wherever it gives one (docs/ALGORITHMS.md, "Bound-first
   evaluation"). *)
let[@inline] settle (cur_cost : float) (best : float) edge' centre margin =
  if cur_cost -. (edge' +. (centre +. margin)) > best then 1
  else if cur_cost -. (edge' +. (centre -. margin)) <= best then -1
  else 0

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
  let store = Net_state.store st in
  let sc = Net_state.scratch st in
  if Array.length sc.adjacent < n then sc.adjacent <- Array.make n false;
  let adjacent = sc.adjacent in
  Incr_apsp.mark_neighbours store agent adjacent true;
  let k = ref 0 in
  for v = 0 to n - 1 do
    let w = Array.unsafe_get row v in
    if v <> agent && w < Float.infinity && not (Array.unsafe_get adjacent v) then begin
      Array.unsafe_set targets !k v;
      Array.unsafe_set weights !k w;
      incr k
    end
  done;
  Incr_apsp.mark_neighbours store agent adjacent false;
  !k

(* Best improving move, plus whether the verdict is "row-local": decided
   entirely from live matrix rows and the profile, with zero what-if
   Dijkstras.  Row-local verdicts are a pure function of (a) the agent's
   strategy entry and co-ownership pairs involving the agent and (b) the
   distance rows of the agent and of its eligible targets — so
   Dynamics.run may reuse them verbatim while those inputs are
   untouched.  A verdict that reads the neighbour floor (below) reads
   the rows of the agent's network neighbours too; it is never
   row-local, because the floor is read only where a what-if would
   otherwise run.

   The candidate enumeration below is Move.candidates inlined — additions
   in ascending target order, then deletions in ascending owned order,
   then swaps (owned ascending × addable ascending) — and ties keep the
   earlier candidate, so the result is identical to folding a strict-[>]
   pick over the materialized list (tested).  Every quantity is priced
   bound first: each decision is taken from a bound when the bound
   settles it, and the exact quantity is computed only when it cannot,
   so every decision is the one the exact quantity gives.  Every array
   lives in the state's workspace: an evaluation allocates no array. *)
let best_move_state_verdict ?(kinds = [ `Add; `Delete; `Swap ]) st ~agent =
  Metric.Counter.incr c_state_evals;
  let host = Net_state.host st in
  let s = Net_state.profile st in
  let store = Net_state.store st in
  let n = Strategy.n s in
  let cur_dist = Incr_apsp.dist_sum store agent in
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
     owns an edge.  Each gets a centre and a margin around its insertion
     sum S' = Σ_x min(d_u(x), w + d_v(x)):
     - a tight target (d(u,v) <= w) the centre cur_dist, no scan, and the
       margin [stored_margin] at 2n·w + cur_dist;
     - a loose one the centre cur_dist − savings, from one plain scan of
       what the edge saves, and the margin [sum_margin] at cur_dist.
     The exact Kahan sum runs only when a decision falls inside the
     band.  When the agent's cost is infinite every sum is computed
     exactly up front. *)
  let exact = ref 0 in
  (* A target's exact sum, computed on first need and kept. *)
  let exact_sum j =
    if not sc.known.(j) then begin
      sc.sums.(j) <- Incr_apsp.dist_sum_with_edge store agent sc.targets.(j) sc.weights.(j);
      sc.margins.(j) <- 0.0;
      sc.known.(j) <- true;
      incr exact
    end
  in
  let k =
    if List.mem `Add kinds || (want_swap && deg > 0) then begin
      let k = addable_into st ~agent sc.targets sc.weights in
      Array.fill sc.known 0 k false;
      if cur_cost < Float.infinity then begin
        let nf = float_of_int n in
        for i = 0 to k - 1 do
          sc.sums.(i) <- cur_dist;
          sc.margins.(i) <- stored_margin n ((2.0 *. nf *. sc.weights.(i)) +. cur_dist)
        done;
        let kl = Incr_apsp.loose_targets store agent sc.targets sc.weights k sc.loose in
        Incr_apsp.savings_into store agent sc.targets sc.weights sc.loose kl sc.sums;
        let margin = sum_margin n cur_dist in
        for i = 0 to kl - 1 do
          let p = sc.loose.(i) in
          sc.sums.(p) <- cur_dist -. sc.sums.(p);
          sc.margins.(p) <- margin
        done
      end
      else
        for i = 0 to k - 1 do
          exact_sum i
        done;
      k
    end
    else 0
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
  (* An addition, or a swap whose sold edge survives, is skipped when
     even the lowest sum its bound allows leaves a gain of at most the
     incumbent's: it could not be taken.  Otherwise it is priced
     exactly. *)
  if List.mem `Add kinds then
    for i = 0 to k - 1 do
      let edge' = cur_edge +. (alpha *. sc.weights.(i)) in
      if cur_cost -. (edge' +. (sc.sums.(i) -. sc.margins.(i))) > !best_gain then begin
        exact_sum i;
        let g = gain_between cur_cost (edge' +. sc.sums.(i)) in
        if g > !best_gain then take (Move.Add sc.targets.(i)) g
      end
    done;
  (* The deletion what-if row r_del(x) = d_{G-e}(u,x) of the [i]-th owned
     edge e = (u, old_t) and its [Flt.sum], computed at most once per
     evaluation: the delete loop sums it, the swap loop bounds with it. *)
  let del_row i old_t =
    let row = sc.del_rows.(i) in
    if sc.del_for.(i) <> old_t then begin
      Incr_apsp.sssp_edited_into store ~remove:(agent, old_t) agent row;
      sc.del_for.(i) <- old_t;
      sc.del_sums.(i) <- Flt.sum row
    end;
    row
  in
  (* The floor L(x) under that row, and its plain sum: a path from u in
     G − e leaves through another of u's edges (u,z), so r_del(x) >=
     w(u,z) + d(z,x) for the best such z, up to [stored_margin] of the
     stored distances.  One neighbour pass per evaluation gives every
     owned edge's floor: the best neighbour's offer, or the second best
     where the best is old_t itself. *)
  let near_ready = ref false in
  let floor_row i old_t =
    let row = sc.floor_rows.(i) in
    if sc.floor_for.(i) <> old_t then begin
      if not !near_ready then begin
        Incr_apsp.neighbour_bounds store agent sc.near_best sc.near_arg sc.near_second;
        near_ready := true
      end;
      let sum = ref 0.0 in
      for x = 0 to n - 1 do
        let l = if sc.near_arg.(x) = old_t then sc.near_second.(x) else sc.near_best.(x) in
        row.(x) <- l;
        sum := !sum +. l
      done;
      sc.floor_for.(i) <- old_t;
      sc.floor_sums.(i) <- !sum
    end;
    row
  in
  (* Branch-and-bound over deletions and swaps: a what-if Dijkstra is
     spent only on moves whose admissible gain bound beats the incumbent
     best.  Deleting an edge gains at most its price back (the removal
     can only lengthen distances), and no more than the floor allows; a
     swap gains at most its pure-insertion relaxation, then its
     relaxation against the floor, then against the deletion row.
     Skipping a bounded-out move is exact: its true gain can never
     replace the incumbent. *)
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
            ignore (floor_row !i v);
            (* An infinite floor means the deletion disconnects: no gain. *)
            let fs = sc.floor_sums.(!i) in
            if fs < Float.infinity
               && cur_cost -. (cur_edge -. bound +. (fs -. stored_margin n fs)) > !best_gain
            then begin
              ignore (del_row !i v);
              let g = gain_between cur_cost (cur_edge -. bound +. sc.del_sums.(!i)) in
              if g > !best_gain then take (Move.Delete v) g
            end
          end;
        incr i)
      owned
  end;
  if want_swap then begin
    let i = ref 0 in
    ISet.iter
      (fun old_t ->
        let w_old = wrow.(old_t) in
        let survives = edge_survives_sale old_t in
        for j = 0 to k - 1 do
          let new_t = sc.targets.(j) and w_new = sc.weights.(j) in
          let edge' = cur_edge +. (alpha *. (w_new -. w_old)) in
          if survives then begin
            (* The sold edge stays (other side owns it too): the swap is
               a pure insertion, priced like an addition. *)
            if cur_cost -. (edge' +. (sc.sums.(j) -. sc.margins.(j))) > !best_gain then begin
              exact_sum j;
              let g = gain_between cur_cost (edge' +. sc.sums.(j)) in
              if g > !best_gain then take (Move.Swap (old_t, new_t)) g
            end
          end
          else begin
            (* The pre-filter cur_cost − insertion_cost > best. *)
            let passes =
              match settle cur_cost !best_gain edge' sc.sums.(j) sc.margins.(j) with
              | 0 ->
                exact_sum j;
                cur_cost -. (edge' +. sc.sums.(j)) > !best_gain
              | v -> v > 0
            in
            if passes then begin
              rowlocal := false;
              (* The floor bound Σ_x min(L(x), w_new + d(new_t,x)), in
                 its savings form, while the deletion row is unknown.  A
                 floor with an infinite entry gives no bound here. *)
              if
                sc.del_for.(!i) = old_t
                ||
                let fl = floor_row !i old_t in
                let fs = sc.floor_sums.(!i) in
                fs = Float.infinity
                || cur_cost
                   -. (edge' +. (fs -. Incr_apsp.savings_against store fl new_t w_new -. stored_margin n fs))
                   > !best_gain
              then begin
                (* The refined bound Σ_x min(r_del(x), w_new + d(new_t,x))
                   (d_{G-e} >= d on the new endpoint's row), centred at
                   Σ r_del − savings; the exact Kahan sum only inside
                   its band, or when r_del has an infinite entry. *)
                let r = del_row !i old_t in
                let rs = sc.del_sums.(!i) in
                let refined =
                  if rs < Float.infinity then
                    settle cur_cost !best_gain edge'
                      (rs -. Incr_apsp.savings_against store r new_t w_new)
                      (sum_margin n rs)
                  else 0
                in
                if refined > 0
                   || refined = 0
                      && cur_cost -. (edge' +. Incr_apsp.min_sum_against store r new_t w_new)
                         > !best_gain
                then begin
                  let dist' =
                    Incr_apsp.sssp_edited_sum store ~remove:(agent, old_t)
                      ~add:(agent, new_t, w_new) agent
                  in
                  let g = gain_between cur_cost (edge' +. dist') in
                  if g > !best_gain then take (Move.Swap (old_t, new_t)) g
                end
              end
            end
          end
        done;
        incr i)
      owned
  end;
  Metric.Counter.add c_exact_sums !exact;
  Metric.Counter.add c_bounded_sums (k - !exact);
  let avoided = ref 0 in
  for i = 0 to deg - 1 do
    if sc.floor_for.(i) >= 0 && sc.del_for.(i) < 0 then incr avoided
  done;
  Metric.Counter.add c_whatifs_avoided !avoided;
  if !rowlocal then Metric.Counter.incr c_rowlocal_verdicts;
  (Option.map (fun mv -> (mv, !best_gain)) !best_move, !rowlocal)
