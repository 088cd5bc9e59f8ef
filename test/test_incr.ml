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
  (* [g] replays every edit: the store keeps no reference to it. *)
  let g = random_connected_graph r n in
  let incr = Incr_apsp.of_graph g in
  let ok = ref true in
  for _ = 1 to 12 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then
      if Wgraph.has_edge g u v then begin
        Wgraph.remove_edge g u v;
        ignore (Incr_apsp.remove_edge incr u v)
      end
      else begin
        let w = Prng.float_in r 0.5 9.0 in
        Wgraph.add_edge g u v w;
        ignore (Incr_apsp.add_edge incr u v w)
      end;
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

(* The pruned best-move search reports the same best gain as the
   exhaustive reference scan (the chosen move may differ only between
   tolerance-tied candidates). *)
let prop_best_move_state_equivalence seed =
  let r, host, s = random_game (seed + 105) ~n:6 in
  let u = Prng.int r 6 in
  let st = Gncg.Net_state.create host s in
  match
    ( fst (Gncg.Fast_response.best_move_state_verdict st ~agent:u),
      snd (Gncg.Greedy.scan host s ~agent:u) )
  with
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
  let store = Net_state.store st in
  let n = Strategy.n s in
  let cur_dist = Incr_apsp.dist_sum store agent in
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
      let x = Incr_apsp.dist_sum_with_edge store agent v w in
      Array.unsafe_set added_memo v x;
      x
    end
    else x
  in
  let rowlocal = ref true in
  let best = ref None in
  (* A gain counts above the game tolerance at the current cost. *)
  let floor = Flt.tol cur_cost cur_cost in
  let pick mv gain =
    match !best with
    | Some (_, g) when g >= gain -> ()
    | _ -> if gain > floor then best := Some (mv, gain)
  in
  let best_gain () = match !best with Some (_, g) -> g | None -> floor in
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
          let dist' = Incr_apsp.sssp_edited_sum store ~remove:(agent, v) agent in
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
                Incr_apsp.sssp_edited_into store ~remove:(agent, old_t) agent r_del;
                r_del_for := old_t
              end;
              let refined_cost =
                cur_edge +. edge_delta +. Incr_apsp.min_sum_against store r_del new_t w_new
              in
              if cur_cost -. refined_cost > best_gain () then begin
                let dist' =
                  Incr_apsp.sssp_edited_sum store ~remove:(agent, old_t)
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

(* Every agent under every kinds list, on one state; [small] counts the
   picks whose gain is at most 1e-9. *)
let all_verdicts_agree ?(small = ref 0) st =
  List.for_all
    (fun kinds ->
      List.for_all
        (fun agent ->
          let w0 = whatifs () in
          let got = Gncg.Fast_response.best_move_state_verdict ~kinds st ~agent in
          let w1 = whatifs () in
          let want = spec_verdict ~kinds st ~agent in
          (match want with Some (_, g), _ when g <= 1e-9 -> incr small | _ -> ());
          let w2 = whatifs () in
          same_verdict got want && w1 - w0 <= w2 - w1)
        (List.init (Strategy.n (Net_state.profile st)) Fun.id))
    kinds_lists

(* On the random state and after each of a few random moves, so the
   state's workspace is reused across evaluations of a changing
   network.  Mutable states are dense; the others may resolve to the
   tree or rd oracle. *)
let evaluator_matches_spec ?(scale = 1.0) ?small seed =
  let host, s = random_eval_state (seed + 111) in
  let host =
    Host.make ~alpha:(Host.alpha host) (Gncg_metric.Metric.scale scale (Host.metric host))
  in
  let r = Prng.create seed in
  Gncg_obs.Obs.set_profiling true;
  Fun.protect
    ~finally:(fun () -> Gncg_obs.Obs.set_profiling false)
    (fun () ->
      let st = Net_state.create host s in
      let ok = ref (all_verdicts_agree ?small (Net_state.create host s)) in
      for _ = 1 to 4 do
        if !ok && all_verdicts_agree ?small st then begin
          let u = Prng.int r (Strategy.n s) in
          match Move.candidates host (Net_state.profile st) ~agent:u with
          | [] -> ()
          | cands ->
            ignore (Net_state.apply_move st ~agent:u (List.nth cands (Prng.int r (List.length cands))))
        end
        else ok := false
      done;
      !ok)

let prop_evaluator_matches_spec seed = evaluator_matches_spec seed

(* Weights scaled by 1e-7 put costs near 1e-5, so some best gains fall
   between the game tolerance and 1e-9, where a pick floored at an
   absolute 1e-9 would miss the move the evaluator takes. *)
let test_evaluator_tiny_weights () =
  let small = ref 0 in
  for seed = 0 to 299 do
    if not (evaluator_matches_spec ~scale:1e-7 ~small seed) then Alcotest.failf "seed %d" seed
  done;
  if !small = 0 then Alcotest.fail "no best gain between the game tolerance and 1e-9"

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

(* The diameter is the largest of the per-vertex maxima of the APSP
   rows, bit for bit.  Each case checks a small graph and one with
   n >= 64, the size at which the eccentricity sweep used to split its
   sources across domains. *)
let prop_diameter_agrees seed =
  let r = Prng.create (seed + 110) in
  List.for_all
    (fun n ->
      let g = random_connected_graph r n in
      let ecc = Array.map Flt.max_array (Gncg_graph.Dijkstra.apsp g) in
      Gncg_graph.Dijkstra.diameter g = Array.fold_left Float.max 0.0 ecc)
    [ 4 + Prng.int r 8; 64 + Prng.int r 16 ]

(* --- dynamic distance matrix: hand-checked insertions ------------------ *)

(* The matrix after inserting (u,v,w), leaving [m] as it was. *)
let with_edge_added m u v w =
  let m' = Incr_apsp.of_graph (Incr_apsp.graph m) in
  ignore (Incr_apsp.add_edge m' u v w);
  m'

let test_dist_matrix_basics () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  let m = Incr_apsp.of_graph g in
  Alcotest.(check int) "size" 3 (Incr_apsp.n m);
  Helpers.check_float "distance" 3.0 (Incr_apsp.distance m 0 2);
  Helpers.check_float "total" (2.0 *. (1.0 +. 2.0 +. 3.0)) (Incr_apsp.total m)

let test_dist_matrix_insertion_exact () =
  let r = Helpers.rng 1201 in
  for _ = 1 to 10 do
    let g = Helpers.random_graph r 12 8 in
    let m = Incr_apsp.of_graph g in
    (* Insert a random absent pair and compare with recomputation. *)
    let u = Prng.int r 12 and v = Prng.int r 12 in
    if u <> v && not (Wgraph.has_edge g u v) then begin
      let w = Prng.float_in r 0.1 3.0 in
      let updated = with_edge_added m u v w in
      Wgraph.add_edge g u v w;
      let reference = Incr_apsp.of_graph g in
      for x = 0 to 11 do
        for y = 0 to 11 do
          if
            not
              (Helpers.approx ~tol:1e-9 (Incr_apsp.distance updated x y)
                 (Incr_apsp.distance reference x y))
          then
            Alcotest.failf "d(%d,%d): incremental %g vs recomputed %g" x y
              (Incr_apsp.distance updated x y) (Incr_apsp.distance reference x y)
        done
      done;
      Helpers.check_float ~tol:1e-6 "total shortcut agrees" (Incr_apsp.total reference)
        (Incr_apsp.total_with_edge_added m u v w)
    end
  done

let test_dist_matrix_insertion_connects () =
  (* Inserting across components makes the total finite. *)
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let m = Incr_apsp.of_graph g in
  Helpers.check_true "initially infinite" (Incr_apsp.total m = Float.infinity);
  let m' = with_edge_added m 1 2 5.0 in
  Helpers.check_true "finite after bridging" (Float.is_finite (Incr_apsp.total m'));
  Helpers.check_float "new route" 7.0 (Incr_apsp.distance m' 0 3)

let test_dist_matrix_noop_insertion () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let m = Incr_apsp.of_graph g in
  (* A heavy parallel route cannot improve anything. *)
  let m' = with_edge_added m 0 2 10.0 in
  Helpers.check_float "unchanged" (Incr_apsp.total m) (Incr_apsp.total m');
  Helpers.check_float "unchanged total shortcut" (Incr_apsp.total m)
    (Incr_apsp.total_with_edge_added m 0 2 10.0)

(* The store hands out copies of its rows, and a deletion row that
   swaps places with the scratch row leaves no alias behind: writing into
   a [matrix] row, or running what-ifs through the scratch row after a
   deletion, changes no stored distance. *)
let test_dist_matrix_rows_unaliased () =
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (0, 3, 5.0) ] in
  let m = Incr_apsp.of_graph g in
  let check_store name =
    let want = Gncg_graph.Dijkstra.apsp (Incr_apsp.graph m) in
    Helpers.check_true name (Incr_apsp.matrix m = want)
  in
  let rows = Incr_apsp.matrix m in
  rows.(0).(2) <- 99.0;
  Array.fill rows.(3) 0 4 0.0;
  check_store "matrix rows are copies";
  let changed = Incr_apsp.remove_edge m 1 2 in
  Helpers.check_true "the deletion changed rows" (Gncg_graph.Changed_rows.cardinal changed > 0);
  for s = 0 to 3 do
    ignore (Incr_apsp.sssp_edited_sum m ~remove:(0, 3) s)
  done;
  check_store "what-ifs after a deletion leave the store as it was"

let suites =
  [
    ( "incremental-engine",
      [
        qtest ~count:25 "incr APSP = scratch APSP" seed_gen prop_incr_apsp_matches_scratch;
        qtest ~count:25 "net-state consistency" seed_gen prop_net_state_consistent;
        qtest ~count:25 "pruned best move = reference" seed_gen prop_best_move_state_equivalence;
        qtest ~count:60 "state evaluator = spec, bitwise" seed_gen prop_evaluator_matches_spec;
        qtest ~count:15 "incremental dynamics reach GE" seed_gen
          prop_incremental_dynamics_converge_to_ge;
        qtest ~count:15 "parallel checks = sequential" seed_gen prop_parallel_checks_agree;
        qtest ~count:10 "parallel unhappy = sequential" seed_gen prop_parallel_unhappy_agree;
        qtest ~count:10 "parallel certify = sequential" seed_gen prop_parallel_certify_agree;
        qtest ~count:20 "diameter identity" seed_gen prop_diameter_agrees;
        Helpers.case "state evaluator = spec at weights near 1e-7" test_evaluator_tiny_weights;
      ] );
    ( "graph.dist-matrix",
      [
        Helpers.case "basics" test_dist_matrix_basics;
        Helpers.case "insertion matches recompute" test_dist_matrix_insertion_exact;
        Helpers.case "insertion can connect" test_dist_matrix_insertion_connects;
        Helpers.case "useless insertion is no-op" test_dist_matrix_noop_insertion;
        Helpers.case "matrix rows are not aliased" test_dist_matrix_rows_unaliased;
      ] );
  ]
