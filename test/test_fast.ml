open Helpers
module Prng = Gncg_util.Prng
module Fr = Gncg.Fast_response

let move_name = function
  | Gncg.Move.Add v -> Printf.sprintf "add->%d" v
  | Delete v -> Printf.sprintf "del->%d" v
  | Swap (a, b) -> Printf.sprintf "swap %d=>%d" a b

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
            (move_name mv)
            scan_gain slow_gain)
      (snd (Gncg.Greedy.gains host s ~agent))
  done

let test_best_move_equivalent () =
  let r = rng 1101 in
  for _ = 1 to 12 do
    let n = 5 + Prng.int r 4 in
    let host, s = random_setup r ~n in
    let agent = Prng.int r n in
    let fast = fst (Fr.best_move_state_verdict (Gncg.Net_state.create host s) ~agent) in
    let slow = snd (Gncg.Greedy.scan host s ~agent) in
    match (fast, slow) with
    | None, None -> ()
    | Some (_, gf), Some (_, gs) -> check_float ~tol:1e-6 "same best gain" gs gf
    | Some (mv, g), None ->
      Alcotest.failf "state evaluator found %s gain %g where the scan found none"
        (move_name mv) g
    | None, Some (mv, g) ->
      Alcotest.failf "the scan found %s gain %g where the state evaluator found none"
        (move_name mv) g
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
      (Gncg_util.Exec.init ~exec:(Gncg_util.Exec.par ~domains:4 ()) n f)
  done

let test_parallel_map () =
  let a = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int)) "map matches" (Array.map (fun x -> x * 3) a)
    (Gncg_util.Exec.init ~exec:(Gncg_util.Exec.par ~domains:3 ()) (Array.length a) (fun i ->
         a.(i) * 3))

(* [Fast_response.addable_into], the evaluator's target loop, against
   the predicate [Move.addable] and [Host.weight]: the same targets in
   the same order and the same weight bits, on all 7 CLI model families
   (one-inf has forbidden pairs) with random starts in which some owned
   edges are bought back from the other side.  The loop reads the
   agent's neighbours from the state's adjacency, so the check runs on
   the start and again after each of a few random moves applied to the
   state. *)
let prop_addable_into seed =
  let r = Prng.create (seed + 1150) in
  let n = 2 + Prng.int r 12 in
  let _, model = List.nth Gncg_workload.Instances.named_models (Prng.int r 7) in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha:2.0 in
  let s = Gncg_workload.Instances.random_profile r host in
  let s =
    List.fold_left
      (fun s (u, v) -> if Prng.int r 3 = 0 then Gncg.Strategy.buy s v u else s)
      s (Gncg.Strategy.owned_edges s)
  in
  let st = Gncg.Net_state.create host s in
  let targets = Array.make n (-1) and weights = Array.make n Float.nan in
  let matches () =
    let s = Gncg.Net_state.profile st in
    List.for_all
      (fun agent ->
        let k = Gncg.Fast_response.addable_into st ~agent targets weights in
        let want = List.filter (Gncg.Move.addable host s ~agent) (List.init n Fun.id) in
        Array.to_list (Array.sub targets 0 k) = want
        && List.for_all2
             (fun v w ->
               Int64.equal (Int64.bits_of_float w)
                 (Int64.bits_of_float (Gncg.Host.weight host agent v)))
             want
             (Array.to_list (Array.sub weights 0 k)))
      (List.init n Fun.id)
  in
  let rec walk moves =
    matches ()
    && (moves = 0
       ||
       let agent = Prng.int r n in
       match Gncg.Move.candidates host (Gncg.Net_state.profile st) ~agent with
       | [] -> walk (moves - 1)
       | cands ->
         ignore
           (Gncg.Net_state.apply_move st ~agent
              (List.nth cands (Prng.int r (List.length cands))));
         walk (moves - 1))
  in
  walk 4

let suites =
  [
    ( "fast-response",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:200 ~name:"addable_into = Move.addable" QCheck.small_nat
             prop_addable_into);
        case "gains match reference" test_gains_match_reference;
        case "best move equivalent" test_best_move_equivalent;
        case "evaluation is effect-free" test_graph_restored_after_evaluation;
        case "dynamics evaluators agree" test_dynamics_evaluators_agree;
      ] );
    ( "parallel",
      [
        case "init matches sequential" test_parallel_init_matches_sequential;
        case "map matches" test_parallel_map;
      ] );
  ]
