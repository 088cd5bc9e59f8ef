open Helpers
module Prng = Gncg_util.Prng
module Fr = Gncg.Fast_response

let random_setup r ~n =
  let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 5) in
  let host =
    Gncg_workload.Instances.random_host r model ~n ~alpha:(0.5 +. Prng.float r 3.0)
  in
  let s = Gncg_workload.Instances.random_profile r host in
  (host, s)

(* The stateless greedy scan and the state evaluator on the same random
   instances: per-candidate gains agree within tolerance, and so do the
   best gains (moves may differ on exact ties). *)

let test_gains_match_reference () =
  let r = rng 1100 in
  for trial = 1 to 12 do
    let n = 5 + Prng.int r 4 in
    let host, s = random_setup r ~n in
    let agent = Prng.int r n in
    List.iter
      (fun (mv, scan_gain) ->
        let slow_gain = Gncg.Greedy.move_gain host s ~agent mv in
        if not (approx ~tol:1e-6 scan_gain slow_gain) then
          Alcotest.failf "trial %d agent %d move %s: scan=%g spec=%g" trial agent
            (Format.asprintf "%a" Gncg.Move.pp mv)
            scan_gain slow_gain)
      (snd (Gncg.Greedy.gains host s ~agent))
  done

let test_best_move_equivalent () =
  let r = rng 1101 in
  for _ = 1 to 12 do
    let n = 5 + Prng.int r 4 in
    let host, s = random_setup r ~n in
    let agent = Prng.int r n in
    let fast = Fr.best_move_state (Gncg.Net_state.create host s) ~agent in
    let slow = Gncg.Greedy.best_move host s ~agent in
    match (fast, slow) with
    | None, None -> ()
    | Some (_, gf), Some (_, gs) -> check_float ~tol:1e-6 "same best gain" gs gf
    | Some (mv, g), None ->
      Alcotest.failf "state evaluator found %s gain %g where the scan found none"
        (Format.asprintf "%a" Gncg.Move.pp mv) g
    | None, Some (mv, g) ->
      Alcotest.failf "the scan found %s gain %g where the state evaluator found none"
        (Format.asprintf "%a" Gncg.Move.pp mv) g
  done

let test_graph_restored_after_evaluation () =
  (* The scan edits only its private flat adjacency, never the caller's
     data: evaluating twice must give identical results. *)
  let r = rng 1103 in
  let host, s = random_setup r ~n:6 in
  let a = snd (Gncg.Greedy.gains host s ~agent:2) in
  let b = snd (Gncg.Greedy.gains host s ~agent:2) in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (_, ga) (_, gb) -> check_float ~tol:0.0 "bit-identical" ga gb)
    a b

let test_dynamics_evaluators_agree () =
  (* Greedy dynamics on the state evaluator take the stateless scan's
     steps, bit for bit, and stop at the same profile. *)
  let r = rng 1106 in
  for _ = 1 to 6 do
    let n = 6 + Prng.int r 3 in
    let host, start = random_setup r ~n in
    let rule = Gncg.Dynamics.Greedy_response and scheduler = Gncg.Dynamics.Round_robin in
    let engine =
      Gncg.Dynamics.run (Gncg.Dynamics.Config.make ~max_steps:4000 rule scheduler) host start
    in
    check_true "same trajectory as the stateless scan"
      (same_trajectory ~ulps:float_ulps engine
         (stateless_dynamics ~max_steps:4000 rule scheduler host start));
    match engine with
    | Gncg.Dynamics.Converged { profile; _ } ->
      check_true "converged profile is a GE" (Gncg.Equilibrium.is_ge host profile)
    | _ -> ()
  done

(* --- parallel helpers ---------------------------------------------------- *)

let test_parallel_init_matches_sequential () =
  let f i = float_of_int (i * i) +. 1.0 in
  for n = 0 to 40 do
    Alcotest.(check (array (float 0.0)))
      "init matches" (Array.init n f)
      (Gncg_util.Parallel.init ~domains:4 n f)
  done

let test_parallel_map () =
  let a = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int)) "map matches" (Array.map (fun x -> x * 3) a)
    (Gncg_util.Parallel.map_array ~domains:3 (fun x -> x * 3) a)

let test_apsp_parallel_matches () =
  let r = rng 1104 in
  let g = random_graph r 25 40 in
  let seq = Gncg_graph.Dijkstra.apsp g in
  let par = Gncg_graph.Dijkstra.apsp ~exec:(Gncg_util.Exec.Par { domains = Some 4 }) g in
  for u = 0 to 24 do
    Alcotest.(check (array (float 1e-9))) "row matches" seq.(u) par.(u)
  done

let test_social_cost_parallel_matches () =
  let r = rng 1105 in
  let host, s = random_setup r ~n:12 in
  let exec = Gncg_util.Exec.Par { domains = Some 4 } in
  check_float ~tol:1e-6 "social cost matches"
    (Gncg.Cost.social_cost host s)
    (Gncg.Cost.social_cost ~exec host s);
  let g = Gncg.Network.graph host s in
  check_float ~tol:1e-6 "network cost matches"
    (Gncg.Cost.network_social_cost host g)
    (Gncg.Cost.network_social_cost ~exec host g)

let suites =
  [
    ( "fast-response",
      [
        case "gains match reference" test_gains_match_reference;
        case "best move equivalent" test_best_move_equivalent;
        case "evaluation is effect-free" test_graph_restored_after_evaluation;
        case "dynamics evaluators agree" test_dynamics_evaluators_agree;
      ] );
    ( "parallel",
      [
        case "init matches sequential" test_parallel_init_matches_sequential;
        case "map matches" test_parallel_map;
        case "apsp parallel" test_apsp_parallel_matches;
        case "social cost parallel" test_social_cost_parallel_matches;
      ] );
  ]
