(* The bound-first rules of [Fast_response.best_move_state_verdict]
   against the evaluator before them.  [batched_verdict] below is that
   evaluator's body, verbatim but for three things: its workspace is a
   fresh private one, so the two evaluators share no scratch; it ticks
   none of the library's counters; and it takes each insertion sum from
   [dist_sum_with_edge], which returns the bits of the batched kernel it
   once called.  Its helpers [gain_between] and [prepare] are copied
   beside it.  It computes every addable target's insertion sum up
   front, one batch per evaluation, and every deletion row and refined
   swap bound its pre-filters reach: it knows no bound.  The new
   evaluator must return the same move, the same gain bits and the same
   row-local flag for every agent and every kinds list.  The hosts are
   [Helpers.adversarial_hosts]: all 7 CLI model families, the tie-heavy
   all-ones and 1-2 hosts, a line host with coincident points (so that
   zero-weight pairs exist), weights over four decades, a part no finite
   weight reaches, and weights scaled by 2²⁰ up to 10¹⁰.  Each runs at
   three prices: 2, 1e-12 and the smallest positive float.  Host.make
   rejects alpha = 0, so the smallest positive float stands in for it.
   The states are random starts with co-owned edges and the states
   reached from them by greedy and random moves.

   The bounds themselves are checked on the same hosts: the neighbour
   floor under every deletion row, the floor's swap bound under every
   swap sum, the savings centre around every insertion sum, and the
   inlined margins against [Flt].  So is the evaluator's contract with
   the store it is handed: an evaluation leaves it as it was. *)

open Helpers
module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Strategy = Gncg.Strategy
module ISet = Strategy.ISet
module Move = Gncg.Move
module Host = Gncg.Host
module Cost = Gncg.Cost
module Net_state = Gncg.Net_state
module I = Gncg_workload.Instances
module Wgraph = Gncg_graph.Wgraph
module Incr_apsp = Gncg_graph.Incr_apsp

(* --- the evaluator before the bounds --------------------------------------- *)

let gain_between cur_cost cost' =
  if Flt.approx_eq cost' cur_cost then 0.0 else cur_cost -. cost'

let workspace () : Net_state.scratch =
  {
    targets = [||];
    weights = [||];
    sums = [||];
    margins = [||];
    known = [||];
    loose = [||];
    del_rows = [||];
    del_for = [||];
    del_sums = [||];
    near_best = [||];
    near_arg = [||];
    near_second = [||];
    floor_rows = [||];
    floor_for = [||];
    floor_sums = [||];
    adjacent = [||];
  }

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

let batched_verdict ?(kinds = [ `Add; `Delete; `Swap ]) st ~agent =
  let host = Net_state.host st in
  let s = Net_state.profile st in
  let store = Net_state.store st in
  let n = Strategy.n s in
  let cur_dist = Incr_apsp.dist_sum store agent in
  let cur_edge = Cost.agent_edge_cost host s agent in
  let cur_cost = cur_edge +. cur_dist in
  let alpha = Host.alpha host in
  let edge_survives_sale v = Strategy.owns s v agent in
  let owned = Strategy.strategy s agent in
  let deg = ISet.cardinal owned in
  let want_swap = List.mem `Swap kinds in
  let sc = workspace () in
  prepare sc n deg;
  (* The addable targets in ascending order, their weights, and their
     insertion sums Σ_x min(d_u(x), w + d_v(x)), shared by the Add
     candidates and by every swap bound below.  One batch fills them,
     exactly when some candidate reads them: when additions are
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
      for i = 0 to !k - 1 do
        sc.sums.(i) <- Incr_apsp.dist_sum_with_edge store agent sc.targets.(i) sc.weights.(i)
      done;
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
      Incr_apsp.sssp_edited_into store ~remove:(agent, old_t) agent row;
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
              cur_edge +. edge_delta +. Incr_apsp.min_sum_against store (del_row !i old_t) new_t w_new
            in
            if cur_cost -. refined_cost > best_gain () then begin
              let dist' =
                Incr_apsp.sssp_edited_sum store ~remove:(agent, old_t)
                  ~add:(agent, new_t, w_new) agent
              in
              pick (Move.Swap (old_t, new_t)) (gain_between cur_cost (cur_edge +. edge_delta +. dist'))
            end
          end
        done;
        incr i)
      owned
  end;
  (!best, !rowlocal)

(* --- the comparison ------------------------------------------------------ *)

let counter name =
  match Gncg_obs.Metric.find_counter name with
  | Some c -> Gncg_obs.Metric.Counter.value c
  | None -> 0

let with_profiling f =
  Gncg_obs.Obs.set_profiling true;
  Fun.protect ~finally:(fun () -> Gncg_obs.Obs.set_profiling false) f

(* The first agent and kinds list on which the two evaluators differ. *)
let first_difference st =
  let n = Strategy.n (Net_state.profile st) in
  List.find_map
    (fun kinds ->
      List.find_opt
        (fun agent ->
          not
            (Test_incr.same_verdict
               (Gncg.Fast_response.best_move_state_verdict ~kinds st ~agent)
               (batched_verdict ~kinds st ~agent)))
        (List.init n Fun.id)
      |> Option.map (fun agent -> (agent, List.length kinds)))
    Test_incr.kinds_lists

(* From a random start with some owned edges bought back by their other
   endpoint, so that co-owned edges exist, the evaluators are compared
   on the start and after each of six steps.  Even steps are one round
   of greedy moves, which walk toward the stable networks where most
   targets are tight.  Odd steps are one random move. *)
let check_walk label r host =
  let s = I.random_profile r host in
  let s =
    List.fold_left
      (fun s (u, v) -> if Prng.int r 3 = 0 then Strategy.buy s v u else s)
      s (Strategy.owned_edges s)
  in
  let st = Net_state.create host s in
  let n = Strategy.n s in
  for step = 0 to 6 do
    (match first_difference st with
    | Some (agent, kinds) ->
      Alcotest.failf "%s, step %d: agent %d differs (kinds list of %d)" label step agent kinds
    | None -> ());
    if step mod 2 = 0 then
      for u = 0 to n - 1 do
        match fst (Gncg.Fast_response.best_move_state_verdict st ~agent:u) with
        | Some (mv, _) -> ignore (Net_state.apply_move st ~agent:u mv)
        | None -> ()
      done
    else begin
      let u = Prng.int r n in
      match Move.candidates host (Net_state.profile st) ~agent:u with
      | [] -> ()
      | cands ->
        ignore (Net_state.apply_move st ~agent:u (List.nth cands (Prng.int r (List.length cands))))
    end
  done

(* Host.make rejects alpha = 0; the smallest positive float stands in. *)
let alphas = [ 2.0; 1e-12; Float.succ 0.0 ]

let test_matches_batched () =
  let r = rng 2400 in
  with_profiling (fun () ->
      let bounded0 = counter "fast_response.bounded_sums"
      and exact0 = counter "fast_response.exact_sums" in
      List.iter
        (fun alpha ->
          List.iter
            (fun (name, make) ->
              for trial = 1 to 3 do
                let n = 6 + Prng.int r 9 in
                check_walk
                  (Printf.sprintf "%s n=%d alpha=%g trial %d" name n alpha trial)
                  r (make n)
              done)
            (adversarial_hosts r ~alpha))
        alphas;
      (* Both sides of the rule ran: sums that were never computed, and
         targets whose bound could not settle a decision. *)
      check_true "some sums decided by their bound" (counter "fast_response.bounded_sums" > bounded0);
      check_true "some sums computed exactly" (counter "fast_response.exact_sums" > exact0))

(* A path metric at the magnitudes of [Helpers.magnitudes], with its own
   path bought edge by edge.  Every non-adjacent target is then tight
   with w = d(u,v), and a tight sum falls short of the current sum
   wherever fl(d(u,v) + d(v,x)) rounds below the left-to-right path sum
   d(u,x): by an ulp of the sum, far above [Flt.eps].  At a price near 0
   that shortfall is the agent's only gain, so a margin too small to
   cover it changes the verdict. *)
let test_own_path_at_magnitude () =
  let r = rng 2430 in
  List.iter
    (fun alpha ->
      List.iter
        (fun scale ->
          for trial = 1 to 4 do
            let n = 6 + Prng.int r 15 in
            let path =
              Wgraph.of_edges n
                (List.init (n - 1) (fun i -> (i, i + 1, scale *. Prng.float_in r 1.0 10.0)))
            in
            let host = Host.make ~alpha (Gncg_metric.Metric.of_graph_closure path) in
            let owned = List.map (fun (u, v, _) -> (u, [ v ])) (Wgraph.edges path) in
            (* The path alone, then with chords: each agent below n - 2
               also buys, with probability 1/2, an edge to a vertex two
               to four steps on, at its metric weight.  A chord is
               redundant, so its deletion row equals the agent's row up
               to rounding, and a swap's refined bound then falls within
               an ulp of the agent's distance sum: inside its band. *)
            let chords =
              List.map
                (fun (u, vs) ->
                  let v = u + 2 + Prng.int r 3 in
                  if v < n && Prng.int r 2 = 0 then (u, v :: vs) else (u, vs))
                owned
            in
            List.iter
              (fun (label, owned) ->
                let st = Net_state.create host (Strategy.of_lists n owned) in
                match first_difference st with
                | Some (agent, kinds) ->
                  Alcotest.failf
                    "%s, scale %g alpha %g n=%d trial %d: agent %d differs (kinds list of %d)" label
                    scale alpha n trial agent kinds
                | None -> ())
              [ ("path", owned); ("chords", chords) ]
          done)
        magnitudes)
    alphas

(* The margin itself, with the factor of two that ALGORITHMS.md claims
   as headroom: for every tight pair (u, v) and w = d(u,v), the tightest
   price, the insertion sum lies within half of [Flt.stored_margin] at
   2n·w + dist_sum u of dist_sum u.  The store has been through up to 60
   edge insertions and deletions, so its entries come from insertion
   generations and settled rows as well as fresh passes. *)
let prop_margin_has_headroom seed =
  let r = Prng.create (seed + 2410) in
  let n = 3 + Prng.int r 30 in
  let g = random_graph ~wmin:0.1 ~wmax:(1.0 +. Prng.float r 1000.0) r n (Prng.int r n) in
  let d = Incr_apsp.of_graph g in
  let ok = ref true in
  for _ = 0 to Prng.int r 60 do
    let u = Prng.int r n and v = Prng.int r n in
    (if u <> v then
       if Wgraph.has_edge (Incr_apsp.graph d) u v then ignore (Incr_apsp.remove_edge d u v)
       else ignore (Incr_apsp.add_edge d u v (Prng.float_in r 0.1 50.0)));
    for u = 0 to n - 1 do
      let cur = Incr_apsp.dist_sum d u in
      if Float.is_finite cur then
        for v = 0 to n - 1 do
          let w = Incr_apsp.distance d u v in
          if v <> u then begin
            let margin = Flt.stored_margin n ((2.0 *. float_of_int n *. w) +. cur) in
            if Float.abs (Incr_apsp.dist_sum_with_edge d u v w -. cur) > margin /. 2.0 then
              ok := false
          end
        done
    done
  done;
  !ok

(* The evaluator's inlined copies of the rounding model's margins are
   [Flt]'s bit for bit, over sizes and magnitudes across every scale the
   model meets, zeros and infinities included: [stored_margin] (tight
   targets at 2n·w + cur_dist, the neighbour floor at its sum) and
   [sum_margin] (savings centres at cur_dist or a deletion row's sum). *)
let test_margin_copy_bits () =
  let r = rng 2420 in
  let values =
    [ 0.0; 1e-300; 0.1; 1.0; 3.7; 1e6; 1048576.0; 1e10; 1e300; Float.infinity ]
    @ List.init 40 (fun _ -> Float.pow 10.0 (Prng.float_in r (-6.0) 14.0))
  in
  let same name n mag copy model =
    if not (Int64.equal (Int64.bits_of_float copy) (Int64.bits_of_float model)) then
      Alcotest.failf "%s n=%d mag=%h: copy %h, Flt %h" name n mag copy model
  in
  List.iter
    (fun n ->
      let nf = float_of_int n in
      List.iter
        (fun cur ->
          List.iter
            (fun w ->
              let mag = (2.0 *. nf *. w) +. cur in
              same "stored_margin" n mag (Gncg.Fast_response.stored_margin n mag)
                (Flt.stored_margin n mag))
            values;
          same "stored_margin" n cur (Gncg.Fast_response.stored_margin n cur)
            (Flt.stored_margin n cur);
          same "sum_margin" n cur (Gncg.Fast_response.sum_margin n cur) (Flt.sum_margin n cur))
        values)
    [ 1; 2; 3; 14; 70; 150; 1000; 100_000 ]

(* --- the bounds themselves --------------------------------------------- *)

module Fast_response = Gncg.Fast_response

(* Each adversarial host at each price, two sizes each: a random start
   with co-owned edges, then [f] on that state and after each of four
   steps (a greedy round, then one random move, alternating), so rows
   come from fresh passes, settles and insertion generations. *)
let on_walks seed f =
  let r = rng seed in
  List.iter
    (fun alpha ->
      List.iter
        (fun (name, make) ->
          for _ = 1 to 2 do
            let host = make (6 + Prng.int r 9) in
            let s = I.random_profile r host in
            let s =
              List.fold_left
                (fun s (u, v) -> if Prng.int r 3 = 0 then Strategy.buy s v u else s)
                s (Strategy.owned_edges s)
            in
            let st = Net_state.create host s in
            let n = Strategy.n s in
            for step = 0 to 4 do
              f (Printf.sprintf "%s alpha=%g step %d" name alpha step) st;
              if step mod 2 = 0 then
                for u = 0 to n - 1 do
                  match fst (Fast_response.best_move_state_verdict st ~agent:u) with
                  | Some (mv, _) -> ignore (Net_state.apply_move st ~agent:u mv)
                  | None -> ()
                done
              else begin
                let u = Prng.int r n in
                match Move.candidates host (Net_state.profile st) ~agent:u with
                | [] -> ()
                | cands ->
                  ignore
                    (Net_state.apply_move st ~agent:u (List.nth cands (Prng.int r (List.length cands))))
              end
            done
          done)
        (adversarial_hosts r ~alpha))
    alphas

(* The neighbour floors the evaluator computed for [agent]: the sold
   endpoint, a copy of the floor row and its sum, for every owned edge
   whose deletion or swap reached the floor. *)
let floors_of st ~agent =
  ignore (Fast_response.best_move_state_verdict ~kinds:[ `Delete; `Swap ] st ~agent);
  let sc = Net_state.scratch st in
  let deg = ISet.cardinal (Strategy.strategy (Net_state.profile st) agent) in
  List.filter_map
    (fun i ->
      let o = sc.floor_for.(i) in
      if o < 0 then None else Some (o, Array.copy sc.floor_rows.(i), sc.floor_sums.(i)))
    (List.init deg Fun.id)

let bits_differ a b = not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

(* Every floor row is its definition, bit for bit: 0 at the agent, and
   elsewhere the least w(u,z) + d(z,x) over the agent's network
   neighbours z other than the sold endpoint o, on the stored rows; its
   sum is the plain left-to-right sum.  A fresh state's stored rows are
   the rows [Incr_apsp.of_graph] computes for the same network.  Some
   entries must differ from the least offer of all neighbours, so that
   excluding o is exercised. *)
let test_floor_definition () =
  let excluded = ref 0 and floors = ref 0 in
  on_walks 2440 (fun label walked ->
      let host = Net_state.host walked and s = Net_state.profile walked in
      let st = Net_state.create host s in
      let g = Gncg.Network.graph host s in
      let d = Incr_apsp.of_graph g in
      let n = Strategy.n s in
      for u = 0 to n - 1 do
        List.iter
          (fun (o, row, sum) ->
            incr floors;
            let plain = ref 0.0 in
            for x = 0 to n - 1 do
              let least skip =
                List.fold_left
                  (fun m (z, w) ->
                    let c = w +. Incr_apsp.distance d z x in
                    if z = skip || not (c < m) then m else c)
                  Float.infinity (Wgraph.neighbors g u)
              in
              let want = if x = u then 0.0 else least o in
              if bits_differ row.(x) want then
                Alcotest.failf "%s: agent %d, floor without %d at %d: %h, want %h" label u o x
                  row.(x) want;
              if x <> u && want <> least (-1) then incr excluded;
              plain := !plain +. row.(x)
            done;
            if bits_differ sum !plain then
              Alcotest.failf "%s: agent %d, floor sum without %d: %h, want %h" label u o sum !plain)
          (floors_of st ~agent:u)
      done);
  check_true "floors computed" (!floors > 0);
  check_true "the sold endpoint excluded somewhere" (!excluded > 0)

(* The floor is a lower bound, within its margin, on everything the
   evaluator skips by it: each entry of the deletion what-if row, the
   row's [Flt.sum] that prices the deletion, and for every addable
   target the refined swap bound [min_sum_against] and the swap's own
   what-if sum.  Rows with +inf entries (bridges, the unreachable part)
   must keep them where the floor has them. *)
let test_floor_is_lower_bound () =
  let swaps = ref 0 in
  on_walks 2450 (fun label st ->
      let n = Strategy.n (Net_state.profile st) in
      let store = Net_state.store st in
      let r = Array.make n 0.0 in
      let targets = Array.make n 0 and weights = Array.make n 0.0 in
      for u = 0 to n - 1 do
        List.iter
          (fun (o, row, sum) ->
            Incr_apsp.sssp_edited_into store ~remove:(u, o) u r;
            for x = 0 to n - 1 do
              let l = row.(x) in
              if
                if l = Float.infinity then r.(x) <> Float.infinity
                else l -. Flt.stored_margin n l > r.(x)
              then
                Alcotest.failf "%s: agent %d without %d, entry %d: floor %h above the row's %h"
                  label u o x l r.(x)
            done;
            if sum < Float.infinity then begin
              let low = sum -. Fast_response.stored_margin n sum in
              if low > Flt.sum r then
                Alcotest.failf "%s: agent %d without %d: floor sum %h above the row's %h" label u
                  o low (Flt.sum r);
              let k = Fast_response.addable_into st ~agent:u targets weights in
              for j = 0 to k - 1 do
                let t = targets.(j) and w = weights.(j) in
                let bound =
                  sum -. Incr_apsp.savings_against store row t w -. Fast_response.stored_margin n sum
                in
                let refined = Incr_apsp.min_sum_against store r t w in
                let exact = Incr_apsp.sssp_edited_sum store ~remove:(u, o) ~add:(u, t, w) u in
                incr swaps;
                if bound > refined || bound > exact then
                  Alcotest.failf
                    "%s: agent %d, swap %d -> %d: floor bound %h above the refined %h or the sum %h"
                    label u o t bound refined exact
              done
            end)
          (floors_of st ~agent:u)
      done);
  check_true "swap bounds checked" (!swaps > 0)

(* A savings centre lies within half its margin of the Kahan sum it
   stands for, on every adversarial host after a few random moves: for
   every agent of finite cost and every addable target, cur_dist minus
   the insertion savings against [dist_sum_with_edge], within
   [Flt.sum_margin n cur_dist]; and for every owned edge whose deletion
   row is finite, the row's sum minus the savings against it against
   [min_sum_against], within [Flt.sum_margin] at the row's sum. *)
let prop_savings_centre_headroom seed =
  let r = Prng.create (seed + 2460) in
  let hosts = adversarial_hosts r ~alpha:2.0 in
  let host = (snd (List.nth hosts (seed mod List.length hosts))) (3 + Prng.int r 20) in
  let st = Net_state.create host (I.random_profile r host) in
  let n = Host.n host in
  for _ = 1 to Prng.int r 6 do
    let u = Prng.int r n in
    match Move.candidates host (Net_state.profile st) ~agent:u with
    | [] -> ()
    | cands ->
      ignore (Net_state.apply_move st ~agent:u (List.nth cands (Prng.int r (List.length cands))))
  done;
  let targets = Array.make n 0 and weights = Array.make n 0.0 in
  let idx = Array.init n Fun.id and out = Array.make n 0.0 in
  let row = Array.make n 0.0 in
  let store = Net_state.store st in
  let within centre exact mag = Float.abs (centre -. exact) <= Flt.sum_margin n mag /. 2.0 in
  List.for_all
    (fun u ->
      let cur = Incr_apsp.dist_sum store u in
      let k = Fast_response.addable_into st ~agent:u targets weights in
      Incr_apsp.savings_into store u targets weights idx k out;
      let s = Net_state.profile st in
      (cur = Float.infinity
      || List.for_all
           (fun j ->
             within (cur -. out.(j))
               (Incr_apsp.dist_sum_with_edge store u targets.(j) weights.(j))
               cur)
           (List.init k Fun.id))
      && List.for_all
           (fun o ->
             Strategy.owns s o u
             ||
             (Incr_apsp.sssp_edited_into store ~remove:(u, o) u row;
              let rs = Flt.sum row in
              rs = Float.infinity
              || List.for_all
                   (fun j ->
                     let t = targets.(j) and w = weights.(j) in
                     within (rs -. Incr_apsp.savings_against store row t w)
                       (Incr_apsp.min_sum_against store row t w) rs)
                   (List.init k Fun.id)))
           (ISet.elements (Strategy.strategy s u)))
    (List.init n Fun.id)

(* One evaluation of each agent of a fixed converged n = 60 state
   allocates a bounded number of minor words: the workspace holds every
   array, and the per-target passes (addable targets, margins, savings
   scans, the add loop) allocate nothing, so an addition-only
   evaluation allocates only its fixed overhead.  A full evaluation
   also boxes a few words per swap that reaches a floor or refined
   bound (the kernels' float argument and result).  The state is greedy
   dynamics' fixed point on a uniform random host at alpha = 2, as the
   evaluation-bound benchmark runs; the first pass sizes the workspace
   and is not counted.  Each bound is about twice the largest count
   measured (91 and 335 words, native code); one boxed float per
   target would add over 100 words to the first. *)
let test_evaluation_words () =
  let r = rng 2470 in
  let host =
    Host.make ~alpha:2.0 (Gncg_metric.Random_host.uniform_metric r ~n:60 ~lo:1.0 ~hi:6.0)
  in
  let start = I.random_profile r host in
  let module D = Gncg.Dynamics in
  let s =
    match D.run (D.Config.make ~max_steps:100_000 D.Greedy_response D.Round_robin) host start with
    | D.Converged { profile; _ } -> profile
    | _ -> Alcotest.fail "no convergence"
  in
  let st = Net_state.create host s in
  for u = 0 to 59 do
    ignore (Fast_response.best_move_state_verdict st ~agent:u)
  done;
  let worst kinds =
    let m = ref 0.0 in
    for u = 0 to 59 do
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Fast_response.best_move_state_verdict ~kinds st ~agent:u));
      let w1 = Gc.minor_words () in
      if w1 -. w0 > !m then m := w1 -. w0
    done;
    !m
  in
  let adds = worst [ `Add ] and all = worst [ `Add; `Delete; `Swap ] in
  if adds > 200.0 then Alcotest.failf "an addition pass allocated %.0f minor words" adds;
  if all > 700.0 then Alcotest.failf "an evaluation allocated %.0f minor words" all

(* A full evaluation leaves the store as it was: every row bit for bit,
   the edge set, every suspect set, and an empty change report.  The
   evaluator works on the live store ([Net_state.store]), so this is the
   evidence that it only reads it and asks what-ifs.  The one state a
   what-if may leave behind is a suspect set filled for a row that had
   none, from a scan of the unchanged row, and only at n >=
   [Flat_adj.whatif_settle_min_n]; a known set stays as it was.  The
   states are the walks above (n < 64) and, on every adversarial host,
   a random start at n = 70 after three random moves; every agent is
   evaluated with every move kind and additions alone. *)
let test_evaluation_leaves_store () =
  let min_n = Gncg_graph.Flat_adj.whatif_settle_min_n in
  let whatif_verdicts = ref 0 and filled = ref 0 in
  let check label st =
    let store = Net_state.store st in
    let n = Incr_apsp.n store in
    ignore (Net_state.drain_changes st);
    List.iter
      (fun kinds ->
        for u = 0 to n - 1 do
          let rows = Incr_apsp.matrix store and g = Incr_apsp.graph store in
          let sets = Array.init n (Incr_apsp.suspects store) in
          if not (snd (Fast_response.best_move_state_verdict ~kinds st ~agent:u)) then
            incr whatif_verdicts;
          let rows' = Incr_apsp.matrix store in
          for x = 0 to n - 1 do
            for y = 0 to n - 1 do
              if bits_differ rows.(x).(y) rows'.(x).(y) then
                Alcotest.failf "%s: agent %d moved d(%d,%d) from %h to %h" label u x y
                  rows.(x).(y) rows'.(x).(y)
            done
          done;
          if not (Wgraph.equal g (Incr_apsp.graph store)) then
            Alcotest.failf "%s: agent %d changed the edge set" label u;
          Array.iteri
            (fun x before ->
              match (before, Incr_apsp.suspects store x) with
              | None, Some _ when n >= min_n -> incr filled
              | before, after when before = after -> ()
              | _ -> Alcotest.failf "%s: agent %d changed row %d's suspect set" label u x)
            sets;
          let ch = Net_state.drain_changes st in
          if Gncg_graph.Changed_rows.cardinal ch.rows > 0 || ch.pairs <> [] || ch.full then
            Alcotest.failf "%s: agent %d left a change report" label u
        done)
      [ [ `Add; `Delete; `Swap ]; [ `Add ] ]
  in
  on_walks 2480 check;
  let r = rng 2481 in
  List.iter
    (fun (name, make) ->
      let host = make 70 in
      let st = Net_state.create host (I.random_profile r host) in
      for _ = 1 to 3 do
        let u = Prng.int r 70 in
        match Move.candidates host (Net_state.profile st) ~agent:u with
        | [] -> ()
        | cands ->
          ignore (Net_state.apply_move st ~agent:u (List.nth cands (Prng.int r (List.length cands))))
      done;
      check (name ^ " n=70") st)
    (adversarial_hosts r ~alpha:2.0);
  check_true "verdicts with what-ifs or floors" (!whatif_verdicts > 0);
  check_true "a what-if filled a suspect set" (!filled > 0)

let suites =
  [
    ( "tight-targets",
      [
        case "verdicts = batched evaluator (bits)" test_matches_batched;
        case "own path at 2^20..1e10: verdicts = batched (bits)" test_own_path_at_magnitude;
        case "inlined margin = Flt.stored_margin (bits)" test_margin_copy_bits;
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:60 ~name:"tight sums within half the margin"
             QCheck.small_nat prop_margin_has_headroom);
      ] );
    ( "bound-first",
      [
        case "floor = its definition (bits)" test_floor_definition;
        case "floor under deletion rows and swap sums" test_floor_is_lower_bound;
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:60 ~name:"savings centres within half the margin"
             QCheck.small_nat prop_savings_centre_headroom);
        case "an evaluation's minor words are bounded" test_evaluation_words;
        case "an evaluation leaves the store as it was" test_evaluation_leaves_store;
      ] );
  ]
