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

let test_gains_match_reference () =
  let r = rng 1100 in
  for trial = 1 to 12 do
    let n = 5 + Prng.int r 4 in
    let host, s = random_setup r ~n in
    let agent = Prng.int r n in
    List.iter
      (fun (mv, fast_gain) ->
        let slow_gain = Gncg.Greedy.move_gain host s ~agent mv in
        if not (approx ~tol:1e-6 fast_gain slow_gain) then
          Alcotest.failf "trial %d agent %d move %s: fast=%g slow=%g" trial agent
            (Format.asprintf "%a" Gncg.Move.pp mv)
            fast_gain slow_gain)
      (Fr.move_gains host s ~agent)
  done

let test_best_move_equivalent () =
  let r = rng 1101 in
  for _ = 1 to 12 do
    let n = 5 + Prng.int r 4 in
    let host, s = random_setup r ~n in
    let agent = Prng.int r n in
    let fast = Fr.best_move host s ~agent in
    let slow = Gncg.Greedy.best_move host s ~agent in
    match (fast, slow) with
    | None, None -> ()
    | Some (_, gf), Some (_, gs) ->
      (* Moves may differ on exact ties; the achieved gain must agree. *)
      check_float ~tol:1e-6 "same best gain" gs gf
    | Some (mv, g), None ->
      Alcotest.failf "fast found %s gain %g where reference found none"
        (Format.asprintf "%a" Gncg.Move.pp mv) g
    | None, Some (mv, g) ->
      Alcotest.failf "reference found %s gain %g where fast found none"
        (Format.asprintf "%a" Gncg.Move.pp mv) g
  done

let test_round_add_gains_match () =
  let r = rng 1102 in
  for _ = 1 to 8 do
    let n = 5 + Prng.int r 3 in
    let host, s = random_setup r ~n in
    let batch = Fr.round_add_gains host s in
    (* Every batched gain agrees with the reference evaluator, and every
       improving addition the reference finds appears in the batch. *)
    List.iter
      (fun (u, v, gain) ->
        let slow = Gncg.Greedy.move_gain host s ~agent:u (Gncg.Move.Add v) in
        check_float ~tol:1e-6 "batched gain correct" slow gain)
      batch;
    for u = 0 to n - 1 do
      List.iter
        (fun mv ->
          match mv with
          | Gncg.Move.Add v ->
            let slow = Gncg.Greedy.move_gain host s ~agent:u mv in
            if slow > 1e-6 then
              check_true "improving addition present in batch"
                (List.exists (fun (u', v', _) -> u' = u && v' = v) batch)
          | _ -> ())
        (Gncg.Move.candidates ~kinds:[ `Add ] host s ~agent:u)
    done
  done

let test_graph_restored_after_evaluation () =
  (* move_gains edits only its private flat adjacency, never the caller's
     data: evaluating twice must give identical results. *)
  let r = rng 1103 in
  let host, s = random_setup r ~n:6 in
  let a = Fr.move_gains host s ~agent:2 in
  let b = Fr.move_gains host s ~agent:2 in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (_, ga) (_, gb) -> check_float ~tol:0.0 "bit-identical" ga gb)
    a b

let test_dynamics_evaluators_agree () =
  (* Full dynamics runs under the reference and fast evaluators reach
     equally good stable states (profiles may differ on exact ties). *)
  let r = rng 1106 in
  for _ = 1 to 6 do
    let n = 6 + Prng.int r 3 in
    let host, start = random_setup r ~n in
    let run evaluator =
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 ~evaluator Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
    in
    match (run `Reference, run `Fast) with
    | ( Gncg.Dynamics.Converged { profile = a; _ },
        Gncg.Dynamics.Converged { profile = b; _ } ) ->
      check_true "fast result is GE" (Gncg.Equilibrium.is_ge host b);
      check_float ~tol:1e-6 "same social cost"
        (Gncg.Cost.social_cost host a)
        (Gncg.Cost.social_cost host b)
    | _ -> () (* cycles/budget: nothing to compare *)
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
        case "batched add gains" test_round_add_gains_match;
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
