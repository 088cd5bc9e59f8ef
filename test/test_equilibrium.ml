open Helpers
module Prng = Gncg_util.Prng
module Eq = Gncg.Equilibrium
module Strategy = Gncg.Strategy
module Host = Gncg.Host
module Metric = Gncg_metric.Metric

let unit_host ?(alpha = 1.0) n = Host.make ~alpha (Metric.make n (fun _ _ -> 1.0))

let test_hierarchy_ne_ge_ae () =
  (* Any NE is a GE is an AE: check on the Thm 15 equilibrium. *)
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:3.0 ~n:6 in
  let s = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:3.0 ~n:6 in
  check_true "NE" (Eq.is_ne host s);
  check_true "GE" (Eq.is_ge host s);
  check_true "AE" (Eq.is_ae host s)

let test_ae_but_not_ge () =
  (* A doubly-bought edge: no addition helps, but deleting the redundant
     purchase does — AE without GE. *)
  let host = unit_host ~alpha:2.0 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  check_true "AE" (Eq.is_ae host s);
  check_false "not GE" (Eq.is_ge host s);
  check_false "not NE" (Eq.is_ne host s)

let test_ge_but_not_ne () =
  (* The GE concept is strictly weaker than NE (Lenzner 2012).  These seeds
     were found by offline search: greedy dynamics converge to a greedy
     equilibrium that an exact multi-edge best response still improves. *)
  let witnesses = ref 0 in
  List.iter
    (fun seed ->
      let r = Prng.create seed in
      let n = 5 + Prng.int r 2 in
      let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 5) in
      let alpha = 0.5 +. Prng.float r 4.0 in
      let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
      let start = Gncg_workload.Instances.random_profile r host in
      match
        Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:2000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
      with
      | Gncg.Dynamics.Converged { profile; _ } ->
        if Eq.is_ge host profile && not (Eq.is_ne host profile) then incr witnesses
      | _ -> ())
    [ 729; 1141; 1387; 1593; 1993 ];
  check_true "found GE that is not NE" (!witnesses > 0)

let test_empty_profile_stability () =
  (* n = 2: buying the single edge turns infinite cost finite, so the empty
     profile is not add-only stable. *)
  check_false "empty not AE (n=2)" (Eq.is_ae (unit_host 2) (Strategy.empty 2));
  (* n = 3: one added edge still leaves the buyer at infinite cost (the
     third agent stays unreachable), so the empty profile is — degenerately
     — add-only stable; a two-edge deviation connects everyone, so it is
     not a NE. *)
  let host = unit_host 3 in
  let s = Strategy.empty 3 in
  check_true "empty is AE (n=3, infinite plateau)" (Eq.is_ae host s);
  check_false "empty not NE (n=3)" (Eq.is_ne host s)

let test_unhappy_agents () =
  let host = unit_host ~alpha:2.0 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  Alcotest.(check (list int)) "both owners unhappy (GE)" [ 0; 1 ] (Eq.unhappy_agents Eq.GE host s);
  Alcotest.(check (list int)) "nobody unhappy (AE)" [] (Eq.unhappy_agents Eq.AE host s)

let test_star_ne_alpha_ge_3 () =
  (* Thm 10: for alpha >= 3 any star on a 1-2 host is a NE. *)
  let r = rng 301 in
  for _ = 1 to 5 do
    let n = 6 in
    let m = Gncg_metric.One_two.random r ~n ~p_one:0.5 in
    let host = Host.make ~alpha:(3.0 +. Prng.float r 4.0) m in
    let center = Prng.int r n in
    let s = Strategy.star n ~center in
    check_true "star is NE (Thm 10)" (Eq.is_ne host s)
  done

let test_star_not_ne_small_alpha () =
  (* For alpha < 1/2 every missing 1-edge is an improving buy (Lemma 3), so
     a star over a host with spare 1-edges cannot be a NE. *)
  let m = Gncg_metric.One_two.of_one_edges 4 [ (1, 2); (2, 3); (1, 3) ] in
  let host = Host.make ~alpha:0.3 m in
  let s = Strategy.star 4 ~center:0 in
  check_false "star not NE for tiny alpha" (Eq.is_ne host s)

let test_lemma3_one_edges_improving () =
  (* Lemma 3: for alpha < 1 buying a missing 1-edge strictly improves. *)
  let m = Gncg_metric.One_two.of_one_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let host = Host.make ~alpha:0.9 m in
  (* Path 0-1-2 misses the 1-edge (0,2). *)
  let s = Strategy.of_lists 3 [ (0, [ 1 ]); (1, [ 2 ]) ] in
  let gain = Gncg.Greedy.move_gain host s ~agent:0 (Gncg.Move.Add 2) in
  check_true "buying missing 1-edge improves" (gain > 0.0);
  check_float ~tol:1e-9 "gain is 1 - alpha" (1.0 -. 0.9) gain

let test_approx_factor_at_equilibrium () =
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:2.0 ~n:6 in
  let s = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:2.0 ~n:6 in
  check_float ~tol:1e-9 "NE factor is 1" 1.0 (Eq.approx_factor Eq.NE host s)

let test_approx_factor_detects_gap () =
  let host = unit_host ~alpha:2.0 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  (* Each owner pays 2 + 1 = 3 but could free-ride at 1: factor 3. *)
  check_float ~tol:1e-9 "factor" 3.0 (Eq.approx_factor Eq.NE host s)

let test_thm2_ae_is_alpha_plus_one_ge () =
  (* Thm 2: on metric hosts any AE is an (alpha+1)-approximate GE. *)
  let r = rng 302 in
  for _ = 1 to 10 do
    let n = 5 + Prng.int r 3 in
    let alpha = 0.5 +. Prng.float r 2.5 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let host = Host.make ~alpha m in
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:3000 Gncg.Dynamics.Add_only Gncg.Dynamics.Round_robin)
      host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      check_true "converged profile is AE" (Eq.is_ae host profile);
      let factor = Eq.approx_factor Eq.GE host profile in
      check_true "AE is (alpha+1)-GE" (factor <= Gncg.Quality.ae_ge_factor alpha +. 1e-6)
    | _ -> Alcotest.fail "add-only dynamics must converge (monotone)"
  done

let test_cor2_ae_is_3alpha1_ne () =
  (* Cor 2: any AE on a metric host is a 3(alpha+1)-approximate NE. *)
  let r = rng 303 in
  for _ = 1 to 8 do
    let n = 5 + Prng.int r 2 in
    let alpha = 0.5 +. Prng.float r 2.0 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let host = Host.make ~alpha m in
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:3000 Gncg.Dynamics.Add_only Gncg.Dynamics.Round_robin)
      host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      let factor = Eq.approx_factor Eq.NE host profile in
      check_true "AE is 3(alpha+1)-NE" (factor <= Gncg.Quality.ae_ne_factor alpha +. 1e-6)
    | _ -> Alcotest.fail "add-only dynamics must converge"
  done

let test_thm3_ge_is_3ne () =
  (* Thm 3: on metric hosts any GE is a 3-approximate NE. *)
  let r = rng 304 in
  for _ = 1 to 8 do
    let n = 5 + Prng.int r 2 in
    let alpha = 0.5 +. Prng.float r 2.0 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0 in
    let host = Host.make ~alpha m in
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:5000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      check_true "converged profile is GE" (Eq.is_ge host profile);
      let factor = Eq.approx_factor Eq.NE host profile in
      check_true "GE is 3-NE" (factor <= Gncg.Quality.ge_ne_factor +. 1e-6)
    | _ -> () (* greedy dynamics may cycle: nothing to check *)
  done

let test_certify () =
  (* Stable profile: Ok. *)
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:2.0 ~n:5 in
  let ne = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:2.0 ~n:5 in
  (match Eq.certify Eq.NE host ne with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "equilibrium wrongly indicted");
  (* Unstable profile: the double-buy pair must be reported with the right
     numbers. *)
  let host2 = unit_host ~alpha:2.0 2 in
  let s = Strategy.of_lists 2 [ (0, [ 1 ]); (1, [ 0 ]) ] in
  match Eq.certify Eq.NE host2 s with
  | Ok () -> Alcotest.fail "double purchase must be indicted"
  | Error gs ->
    Alcotest.(check int) "both agents" 2 (List.length gs);
    List.iter
      (fun (g : Eq.grievance) ->
        check_float "current" 3.0 g.Eq.current_cost;
        check_float "best" 1.0 g.Eq.best_cost;
        (match g.Eq.deviation with
        | Some set -> check_true "deviation sells the edge" (Strategy.ISet.is_empty set)
        | None -> Alcotest.fail "NE grievances carry the deviation");
        ignore (Format.asprintf "%a" Eq.pp_grievance g))
      gs

(* A disconnected profile: the Thm 15 star (alpha = 8, n = 20) without
   its centre's edge to agent 3.  Every agent's cost is +inf and one
   addition makes it finite, so the greedy move's gain is +inf: certify
   must indict exactly the agents [unhappy_agents] lists, each with a
   finite best cost. *)
let test_certify_disconnected () =
  let module T = Gncg_constructions.Thm15_tree_star in
  let host = T.host ~alpha:8.0 ~n:20 in
  let s = Gncg.Move.apply (T.ne_profile ~alpha:8.0 ~n:20) ~agent:1 (Gncg.Move.Delete 3) in
  check_false "not GE" (Eq.is_ge host s);
  let unhappy = Eq.unhappy_agents Eq.GE host s in
  Alcotest.(check int) "every agent unhappy" 20 (List.length unhappy);
  match Eq.certify Eq.GE host s with
  | Ok () -> Alcotest.fail "a disconnected profile must be indicted"
  | Error gs ->
    Alcotest.(check (list int))
      "certify lists the unhappy agents" unhappy
      (List.sort compare (List.map (fun (g : Eq.grievance) -> g.Eq.agent) gs));
    List.iter
      (fun (g : Eq.grievance) ->
        check_true "current cost infinite" (g.Eq.current_cost = Float.infinity);
        check_true "best cost finite" (Float.is_finite g.Eq.best_cost);
        check_true "best cost is the moved profile's"
          (g.Eq.best_cost
          = Gncg.Greedy.best_single_move_cost host s ~agent:g.Eq.agent))
      gs

let test_oracle_consistency () =
  let r = rng 305 in
  for _ = 1 to 5 do
    let n = 5 in
    let m = Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:4.0 in
    let host = Host.make ~alpha:1.5 m in
    let s = Gncg_workload.Instances.random_profile r host in
    let enumerated =
      List.for_all
        (fun u ->
          Gncg_util.Flt.le (Gncg.Cost.agent_cost host s u)
            (snd (Gncg.Best_response.exact_enum host s u)))
        (List.init n Fun.id)
    in
    Alcotest.(check bool) "is_ne agrees with enumeration" enumerated (Eq.is_ne host s)
  done

let suites =
  [
    ( "equilibrium",
      [
        case "NE => GE => AE" test_hierarchy_ne_ge_ae;
        case "AE but not GE" test_ae_but_not_ge;
        case "GE but not NE exists" test_ge_but_not_ne;
        case "empty profile stability" test_empty_profile_stability;
        case "unhappy agents" test_unhappy_agents;
        case "Thm 10: star NE for alpha>=3" test_star_ne_alpha_ge_3;
        case "star unstable for small alpha" test_star_not_ne_small_alpha;
        case "Lemma 3: 1-edges improving" test_lemma3_one_edges_improving;
        case "approx factor 1 at NE" test_approx_factor_at_equilibrium;
        case "approx factor detects gap" test_approx_factor_detects_gap;
        case "Thm 2: AE is (a+1)-GE" test_thm2_ae_is_alpha_plus_one_ge;
        case "Cor 2: AE is 3(a+1)-NE" test_cor2_ae_is_3alpha1_ne;
        case "Thm 3: GE is 3-NE" test_thm3_ge_is_3ne;
        case "NE oracle consistency" test_oracle_consistency;
        case "certify evidence" test_certify;
        case "certify a disconnected profile" test_certify_disconnected;
      ] );
  ]
