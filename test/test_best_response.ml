open Helpers
module Prng = Gncg_util.Prng
module Br = Gncg.Best_response
module Strategy = Gncg.Strategy
module Cost = Gncg.Cost

let random_setup r ~n ~alpha =
  let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 5) in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
  let s = Gncg_workload.Instances.random_profile r host in
  (host, s)

let test_exact_equals_enum () =
  let r = rng 200 in
  for trial = 1 to 15 do
    let n = 4 + Prng.int r 4 in
    let host, s = random_setup r ~n ~alpha:(0.5 +. Prng.float r 3.0) in
    let u = Prng.int r n in
    let _, c_bnb = Br.exact host s u in
    let _, c_enum = Br.exact_enum host s u in
    if not (approx ~tol:1e-6 c_bnb c_enum) then
      Alcotest.failf "trial %d: bnb=%g enum=%g" trial c_bnb c_enum
  done

let test_reported_cost_is_real () =
  (* The UMFL objective must equal the actual agent cost of the decoded
     strategy, evaluated independently on the rebuilt network. *)
  let r = rng 201 in
  for _ = 1 to 15 do
    let n = 4 + Prng.int r 5 in
    let host, s = random_setup r ~n ~alpha:(0.5 +. Prng.float r 3.0) in
    let u = Prng.int r n in
    let set, reported = Br.exact host s u in
    let real = Cost.agent_cost host (Strategy.with_strategy s u set) u in
    check_float ~tol:1e-6 "UMFL cost = agent cost" real reported
  done

let test_best_response_no_worse_than_current () =
  let r = rng 202 in
  for _ = 1 to 15 do
    let n = 4 + Prng.int r 5 in
    let host, s = random_setup r ~n ~alpha:(0.5 +. Prng.float r 3.0) in
    let u = Prng.int r n in
    let current = Cost.agent_cost host s u in
    let best = Br.best_cost host s u in
    check_true "BR <= current" (best <= current +. 1e-6)
  done

let test_local_at_least_exact () =
  let r = rng 203 in
  for _ = 1 to 15 do
    let n = 4 + Prng.int r 5 in
    let host, s = random_setup r ~n ~alpha:(0.5 +. Prng.float r 3.0) in
    let u = Prng.int r n in
    let (_, c_exact), (_, c_local) = Br.exact_and_local host s u in
    check_true "local >= exact" (c_local >= c_exact -. 1e-6);
    (* Thm 3 territory: local search is within factor 3 on metric hosts. *)
    if Gncg_metric.Metric.is_metric (Gncg.Host.metric host) && c_exact > 0.0 then
      check_true "local <= 3 * exact" (c_local <= (3.0 *. c_exact) +. 1e-6)
  done

let test_decoded_strategy_excludes_other_side () =
  (* If v already buys (v,u), u's best response never includes v (the edge
     is free for u either way). *)
  let r = rng 204 in
  for _ = 1 to 10 do
    let n = 5 + Prng.int r 4 in
    let host, s0 = random_setup r ~n ~alpha:1.0 in
    let u = Prng.int r n in
    let v = (u + 1) mod n in
    let s = Strategy.buy (Strategy.with_strategy s0 v Strategy.ISet.empty) v u in
    let set, _ = Br.exact host s u in
    check_false "BR avoids double purchase" (Strategy.ISet.mem v set)
  done

let test_isolated_agent_connects () =
  (* An agent with everything to gain buys at least one edge. *)
  let m = Gncg_metric.Metric.make 4 (fun _ _ -> 1.0) in
  let host = Gncg.Host.make ~alpha:2.0 m in
  (* Others form a triangle; agent 3 currently buys nothing and nobody buys
     towards it: cost infinite. *)
  let s = Strategy.of_lists 4 [ (0, [ 1 ]); (1, [ 2 ]); (2, [ 0 ]) ] in
  check_true "currently infinite" (Cost.agent_cost host s 3 = Float.infinity);
  let set, cost = Br.exact host s 3 in
  check_true "buys something" (not (Strategy.ISet.is_empty set));
  check_true "finite after BR" (Float.is_finite cost)

let test_one_inf_respects_forbidden () =
  let r = rng 205 in
  let m = Gncg_metric.One_inf.random_connected r ~n:7 ~p:0.2 in
  let host = Gncg.Host.make ~alpha:1.0 m in
  let s = Gncg_workload.Instances.random_profile r host in
  for u = 0 to 6 do
    let set, _ = Br.exact host s u in
    Strategy.ISet.iter
      (fun v ->
        check_true "only finite-weight edges bought"
          (Float.is_finite (Gncg.Host.weight host u v)))
      set
  done

(* [exact] against strategy enumeration at up to 12 agents, on every
   default host model (1-inf hosts among them) and on sparse 1-inf hosts
   where most pairs are forbidden.  The two engines sum in different
   orders, so costs agree to a relative 1e-9; the returned set must cost
   what [exact] reports. *)
let prop_exact_equals_enum seed =
  let r = rng (seed + 700) in
  let n = 4 + Prng.int r 9 in
  let alpha = 0.3 +. Prng.float r 4.0 in
  let host, s =
    if Prng.coin r 0.25 then
      let m = Gncg_metric.One_inf.random_connected r ~n ~p:(Prng.float_in r 0.1 0.5) in
      let host = Gncg.Host.make ~alpha m in
      (host, Gncg_workload.Instances.random_profile r host)
    else random_setup r ~n ~alpha
  in
  let u = Prng.int r n in
  let set, c_bnb = Br.exact host s u in
  let _, c_enum = Br.exact_enum host s u in
  let tol = 1e-9 *. Float.max 1.0 (Float.abs c_enum) in
  approx ~tol c_bnb c_enum
  && approx ~tol (Cost.agent_cost host (Strategy.with_strategy s u set) u) c_bnb

(* The dual-ascent bound keeps the exact search small: on agents 0-9 of
   the n = 24 one-two instance of seed 1 (alpha 2, random profile) the
   plain suffix-minimum search explored about 106,000 nodes per agent at
   most; each agent must now take at most 1,000. *)
let test_bb_nodes_capped () =
  let module Metric = Gncg_obs.Metric in
  let rng = Prng.create 1 in
  let model = List.hd Gncg_workload.Instances.default_models in
  let host = Gncg_workload.Instances.random_host rng model ~n:24 ~alpha:2.0 in
  let s = Gncg_workload.Instances.random_profile rng host in
  let nodes = Metric.Counter.make "facility_location.bb_nodes" in
  let was = Metric.enabled () in
  Metric.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Metric.set_enabled was)
    (fun () ->
      for u = 0 to 9 do
        let before = Metric.Counter.value nodes in
        ignore (Br.exact host s u);
        let used = Metric.Counter.value nodes - before in
        if used < 1 || used > 1_000 then
          Alcotest.failf "agent %d: %d branch-and-bound nodes (want 1..1000)" u used
      done)

(* One instance and one local search answer both questions exactly as
   [exact] and a local search of the agent's instance do. *)
let test_exact_and_local () =
  let r = rng 206 in
  for _ = 1 to 10 do
    let n = 4 + Prng.int r 8 in
    let host, s = random_setup r ~n ~alpha:(0.5 +. Prng.float r 3.0) in
    let u = Prng.int r n in
    let (e_set, e_cost), (l_set, l_cost) = Br.exact_and_local host s u in
    let e_set', e_cost' = Br.exact host s u in
    let inst, decode = Br.umfl_instance host s u in
    let l_open, l_cost' = Gncg.Facility_location.local_search inst in
    let l_set' = decode l_open in
    let bits = Int64.bits_of_float in
    check_true "exact part = exact"
      (Strategy.ISet.equal e_set e_set' && Int64.equal (bits e_cost) (bits e_cost'));
    check_true "local part = local"
      (Strategy.ISet.equal l_set l_set' && Int64.equal (bits l_cost) (bits l_cost'))
  done

let suites =
  [
    ( "best-response",
      [
        case "branch&bound = enumeration" test_exact_equals_enum;
        case "reported cost is real cost" test_reported_cost_is_real;
        case "never worse than current" test_best_response_no_worse_than_current;
        case "local search sound & 3-approx" test_local_at_least_exact;
        case "no double purchase" test_decoded_strategy_excludes_other_side;
        case "isolated agent connects" test_isolated_agent_connects;
        case "1-inf forbidden edges respected" test_one_inf_respects_forbidden;
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:40 ~name:"branch&bound = enumeration, n <= 12"
             QCheck.small_nat prop_exact_equals_enum);
        case "branch&bound nodes capped at n = 24" test_bb_nodes_capped;
        case "exact_and_local = exact, local" test_exact_and_local;
      ] );
  ]
