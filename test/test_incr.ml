(* Property tests for the incremental distance engine (Incr_apsp /
   Net_state) and the parallel equilibrium scans: every fast path must
   agree with its from-scratch reference within the engine tolerance. *)

module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Wgraph = Gncg_graph.Wgraph
module Incr_apsp = Gncg_graph.Incr_apsp
module Strategy = Gncg.Strategy

let seed_gen = QCheck.small_nat

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let matrices_agree a b =
  let n = Array.length a in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if not (Flt.approx_eq ~tol:1e-6 a.(u).(v) b.(u).(v)) then ok := false
    done
  done;
  !ok

let random_connected_graph r n =
  let g = Wgraph.create n in
  let order = Prng.permutation r n in
  for i = 1 to n - 1 do
    Wgraph.add_edge g order.(i) order.(Prng.int r i) (Prng.float_in r 0.5 9.0)
  done;
  for _ = 1 to n do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && not (Wgraph.has_edge g u v) then
      Wgraph.add_edge g u v (Prng.float_in r 0.5 9.0)
  done;
  g

(* The maintained matrix equals a from-scratch APSP after an arbitrary
   interleaving of edge insertions and deletions (including ones that
   disconnect the graph). *)
let prop_incr_apsp_matches_scratch seed =
  let r = Prng.create (seed + 101) in
  let n = 4 + Prng.int r 10 in
  let incr = Incr_apsp.of_graph (random_connected_graph r n) in
  let g = Incr_apsp.graph incr in
  let ok = ref true in
  for _ = 1 to 12 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then
      if Wgraph.has_edge g u v then ignore (Incr_apsp.remove_edge incr u v)
      else ignore (Incr_apsp.add_edge incr u v (Prng.float_in r 0.5 9.0));
    if not (matrices_agree (Incr_apsp.matrix incr) (Gncg_graph.Dijkstra.apsp g)) then
      ok := false
  done;
  !ok

let random_game seed ~n =
  let r = Prng.create seed in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 4) in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
  let s = Gncg_workload.Instances.random_profile r host in
  (r, host, s)

(* Net_state stays consistent with a freshly rebuilt network across a
   random sequence of applied moves, and its O(n) agent cost matches the
   reference evaluation. *)
let prop_net_state_consistent seed =
  let r, host, s = random_game (seed + 102) ~n:7 in
  let st = Gncg.Net_state.create host s in
  let ok = ref true in
  for _ = 1 to 8 do
    let u = Prng.int r 7 in
    (match Gncg.Move.candidates host (Gncg.Net_state.profile st) ~agent:u with
    | [] -> ()
    | cands ->
      let mv = List.nth cands (Prng.int r (List.length cands)) in
      ignore (Gncg.Net_state.apply_move st ~agent:u mv));
    if not (Gncg.Net_state.check_consistent st) then ok := false;
    let p = Gncg.Net_state.profile st in
    for a = 0 to 6 do
      if
        not
          (Flt.approx_eq ~tol:1e-6
             (Gncg.Net_state.agent_cost st a)
             (Gncg.Cost.agent_cost host p a))
      then ok := false
    done
  done;
  !ok

(* set_profile diffs to an arbitrary profile and the matrix follows. *)
let prop_net_state_set_profile seed =
  let r, host, s = random_game (seed + 103) ~n:7 in
  let st = Gncg.Net_state.create host s in
  let s' = Gncg_workload.Instances.random_profile r host in
  Gncg.Net_state.set_profile st s';
  Strategy.equal (Gncg.Net_state.profile st) s' && Gncg.Net_state.check_consistent st

(* State-based single-move evaluation agrees with the reference
   evaluator on every candidate move. *)
let prop_move_gains_state_equivalence seed =
  let r, host, s = random_game (seed + 104) ~n:6 in
  let u = Prng.int r 6 in
  let st = Gncg.Net_state.create host s in
  List.for_all
    (fun (mv, fast) ->
      Flt.approx_eq ~tol:1e-6 fast (Gncg.Greedy.move_gain host s ~agent:u mv))
    (Gncg.Fast_response.move_gains_state st ~agent:u)

(* The pruned best-move search reports the same best gain as the
   exhaustive reference scan (the chosen move may differ only between
   tolerance-tied candidates). *)
let prop_best_move_state_equivalence seed =
  let r, host, s = random_game (seed + 105) ~n:6 in
  let u = Prng.int r 6 in
  let st = Gncg.Net_state.create host s in
  match (Gncg.Fast_response.best_move_state st ~agent:u, Gncg.Greedy.best_move host s ~agent:u) with
  | None, None -> true
  | Some (_, g1), Some (_, g2) -> Flt.approx_eq ~tol:1e-6 g1 g2
  | Some (_, g), None | None, Some (_, g) -> Float.abs g <= 1e-6

(* --- the state evaluator against its specification ---

   [spec_verdict] is the evaluator as it was before its arrays moved
   into the state's workspace, the insertion sums were batched and the
   deletion what-if rows were shared between the delete and swap loops:
   a lazy per-target memo, one deletion what-if per pruning test that
   needs it.  The evaluator must return the same move, the same gain
   bits and the same row-local flag, with no more what-if Dijkstras. *)

module ISet = Strategy.ISet
module Move = Gncg.Move
module Host = Gncg.Host
module Cost = Gncg.Cost
module Net_state = Gncg.Net_state

let spec_gain_between cur_cost cost' =
  if Flt.approx_eq cost' cur_cost then 0.0 else cur_cost -. cost'

let spec_verdict ?(kinds = [ `Add; `Delete; `Swap ]) st ~agent =
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
        pick (Move.Add v) (spec_gain_between cur_cost cost')
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
          pick (Move.Delete v) (spec_gain_between cur_cost (cur_edge -. (alpha *. w) +. dist'))
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
              pick (Move.Swap (old_t, new_t)) (spec_gain_between cur_cost insertion_cost)
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
                pick (Move.Swap (old_t, new_t)) (spec_gain_between cur_cost (cur_edge +. edge_delta +. dist'))
              end
            end
          end
        done)
      owned
  end;
  (!best, !rowlocal)

(* A random state with co-owned edges (some owned edges bought back by
   their other endpoint) and, often, isolated agents (every edge at an
   agent sold from both sides), so infinite distance sums show up. *)
let random_eval_state seed =
  let r, host, s = random_game seed ~n:(5 + (seed mod 4)) in
  let n = Strategy.n s in
  let s = ref s in
  List.iter
    (fun (u, v) -> if Prng.int r 3 = 0 then s := Strategy.buy !s v u)
    (Strategy.owned_edges !s);
  if Prng.int r 2 = 0 then begin
    let a = Prng.int r n in
    s := Strategy.with_strategy !s a ISet.empty;
    for v = 0 to n - 1 do
      if Strategy.owns !s v a then s := Strategy.sell !s v a
    done
  end;
  (host, !s)

let whatifs () =
  match Gncg_obs.Metric.find_counter "incr_apsp.whatif_sssp" with
  | Some c -> Gncg_obs.Metric.Counter.value c
  | None -> 0

let kinds_lists =
  [ [ `Add; `Delete; `Swap ]; [ `Add ]; [ `Delete; `Swap ]; [ `Delete ]; [ `Swap ] ]

let same_verdict (a, rla) (b, rlb) =
  rla = rlb
  &&
  match (a, b) with
  | None, None -> true
  | Some (ma, ga), Some (mb, gb) ->
    ma = mb && Test_flat.same_bits ga gb
  | _ -> false

(* Every agent under every kinds list, on one state. *)
let all_verdicts_agree st =
  List.for_all
    (fun kinds ->
      List.for_all
        (fun agent ->
          let w0 = whatifs () in
          let got = Gncg.Fast_response.best_move_state_verdict ~kinds st ~agent in
          let w1 = whatifs () in
          let want = spec_verdict ~kinds st ~agent in
          let w2 = whatifs () in
          same_verdict got want && w1 - w0 <= w2 - w1)
        (List.init (Strategy.n (Net_state.profile st)) Fun.id))
    kinds_lists

(* On the random state and after each of a few random moves, so the
   state's workspace is reused across evaluations of a changing
   network.  Mutable states are dense; the others may resolve to the
   tree or rd oracle. *)
let prop_evaluator_matches_spec seed =
  let host, s = random_eval_state (seed + 111) in
  let r = Prng.create seed in
  Gncg_obs.Obs.set_profiling true;
  Fun.protect
    ~finally:(fun () -> Gncg_obs.Obs.set_profiling false)
    (fun () ->
      let st = Net_state.create host s in
      let ok = ref (all_verdicts_agree (Net_state.create host s)) in
      for _ = 1 to 4 do
        if !ok && all_verdicts_agree st then begin
          let u = Prng.int r (Strategy.n s) in
          match Move.candidates host (Net_state.profile st) ~agent:u with
          | [] -> ()
          | cands ->
            ignore (Net_state.apply_move st ~agent:u (List.nth cands (Prng.int r (List.length cands))))
        end
        else ok := false
      done;
      !ok)

(* Incremental dynamics reach a greedy equilibrium, like the reference
   engine (trajectories may split on tolerance ties, so only stability
   of the limit is asserted). *)
let prop_incremental_dynamics_converge_to_ge seed =
  let _, host, s = random_game (seed + 106) ~n:8 in
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host s
  with
  | Gncg.Dynamics.Converged { profile; _ } -> Gncg.Equilibrium.is_ge host profile
  | _ -> false

(* Parallel equilibrium scans return the sequential verdicts. *)
let prop_parallel_checks_agree seed =
  let _, host, s = random_game (seed + 107) ~n:6 in
  let exec = Gncg_util.Exec.Par { domains = Some 3 } in
  Gncg.Equilibrium.is_ae host s = Gncg.Equilibrium.is_ae ~exec host s
  && Gncg.Equilibrium.is_ge host s = Gncg.Equilibrium.is_ge ~exec host s
  && Gncg.Equilibrium.is_ne host s = Gncg.Equilibrium.is_ne ~exec host s

let prop_parallel_unhappy_agree seed =
  let _, host, s = random_game (seed + 108) ~n:6 in
  List.for_all
    (fun kind ->
      Gncg.Equilibrium.unhappy_agents kind host s
      = Gncg.Equilibrium.unhappy_agents ~exec:(Gncg_util.Exec.Par { domains = Some 3 }) kind host s)
    [ Gncg.Equilibrium.NE; Gncg.Equilibrium.GE; Gncg.Equilibrium.AE ]

let prop_parallel_certify_agree seed =
  let _, host, s = random_game (seed + 109) ~n:6 in
  List.for_all
    (fun kind ->
      match
        ( Gncg.Equilibrium.certify kind host s,
          Gncg.Equilibrium.certify ~exec:(Gncg_util.Exec.Par { domains = Some 3 }) kind host s )
      with
      | Ok (), Ok () -> true
      | Error gs, Error gs' ->
        List.map (fun g -> g.Gncg.Equilibrium.agent) gs
        = List.map (fun g -> g.Gncg.Equilibrium.agent) gs'
      | _ -> false)
    [ Gncg.Equilibrium.NE; Gncg.Equilibrium.GE; Gncg.Equilibrium.AE ]

(* Parallel eccentricity/diameter wrappers match a brute-force fold over
   the APSP matrix. *)
let prop_parallel_diameter_agrees seed =
  let r = Prng.create (seed + 110) in
  let n = 4 + Prng.int r 8 in
  let g = random_connected_graph r n in
  let apsp = Gncg_graph.Dijkstra.apsp g in
  let brute =
    Array.fold_left (fun acc row -> Float.max acc (Flt.max_array row)) 0.0 apsp
  in
  Flt.approx_eq ~tol:1e-9 brute (Gncg_graph.Dijkstra.diameter ~domains:2 g)

let suites =
  [
    ( "incremental-engine",
      [
        qtest ~count:25 "incr APSP = scratch APSP" seed_gen prop_incr_apsp_matches_scratch;
        qtest ~count:25 "net-state consistency" seed_gen prop_net_state_consistent;
        qtest ~count:25 "net-state set_profile" seed_gen prop_net_state_set_profile;
        qtest ~count:25 "state move gains = reference" seed_gen prop_move_gains_state_equivalence;
        qtest ~count:25 "pruned best move = reference" seed_gen prop_best_move_state_equivalence;
        qtest ~count:60 "state evaluator = spec, bitwise" seed_gen prop_evaluator_matches_spec;
        qtest ~count:15 "incremental dynamics reach GE" seed_gen
          prop_incremental_dynamics_converge_to_ge;
        qtest ~count:15 "parallel checks = sequential" seed_gen prop_parallel_checks_agree;
        qtest ~count:10 "parallel unhappy = sequential" seed_gen prop_parallel_unhappy_agree;
        qtest ~count:10 "parallel certify = sequential" seed_gen prop_parallel_certify_agree;
        qtest ~count:20 "parallel diameter identity" seed_gen prop_parallel_diameter_agrees;
      ] );
  ]
