(* Drift sentinel: a corrupted cell of the incremental distance matrix
   must be caught within one cadence window, healed by a rebuild, and
   invisible to the equilibrium layer afterwards; a clean run must never
   trip it. *)

open Helpers
module Incr = Gncg_graph.Incr_apsp
module Dijkstra = Gncg_graph.Dijkstra
module Obs = Gncg_obs.Obs
module Metric = Gncg_obs.Metric

let counter name =
  match Metric.find_counter name with
  | Some c -> Metric.Counter.value c
  | None -> Alcotest.failf "counter %s not registered" name

(* Counters only tick with profiling on; restore the flag whatever
   happens so other suites keep their zero-cost default. *)
let with_profiling f =
  Obs.set_profiling true;
  Fun.protect ~finally:(fun () -> Obs.set_profiling false) f

let fresh_matrix t = Dijkstra.apsp (Incr.graph t)

let check_matches_oracle name t =
  let d = fresh_matrix t in
  let n = Incr.n t in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if not (approx (Incr.distance t u v) d.(u).(v)) then
        Alcotest.failf "%s: d(%d,%d) = %g, oracle %g" name u v (Incr.distance t u v)
          d.(u).(v)
    done
  done

(* The acceptance demo: perturb one cell, apply one more update, and the
   cadence-1 sentinel must detect, repair, and report every row. *)
let test_single_cell_perturbation_detected () =
  with_profiling (fun () ->
      let r = rng 900 in
      let t = Incr.of_graph (random_graph r 24 30) in
      Incr.set_selfcheck t 1;
      Incr.inject_cell_error t 3 11 0.125;
      let repairs0 = counter "incr_apsp.selfcheck_repairs" in
      let mismatches0 = counter "incr_apsp.selfcheck_mismatches" in
      (* Any next update closes the cadence window. *)
      let u, v =
        let rec fresh () =
          let u = Gncg_util.Prng.int r 24 and v = Gncg_util.Prng.int r 24 in
          if u <> v && not (Gncg_graph.Wgraph.has_edge (Incr.graph t) u v) then (u, v)
          else fresh ()
        in
        fresh ()
      in
      let changed = Incr.add_edge t u v 0.5 in
      Alcotest.(check int) "selfcheck_mismatches incremented" (mismatches0 + 1)
        (counter "incr_apsp.selfcheck_mismatches");
      Alcotest.(check int) "selfcheck_repairs incremented" (repairs0 + 1)
        (counter "incr_apsp.selfcheck_repairs");
      Alcotest.(check int) "repair reports every row changed" 24
        (Gncg_graph.Changed_rows.cardinal changed);
      check_matches_oracle "healed matrix" t;
      check_true "subsequent probe is clean" (Incr.selfcheck_now t))

let test_selfcheck_now_detects_and_heals () =
  with_profiling (fun () ->
      let r = rng 901 in
      let t = Incr.of_graph (random_graph r 16 20) in
      check_true "clean engine probes clean" (Incr.selfcheck_now t);
      Incr.inject_cell_error t 2 9 (-0.25);
      check_false "perturbed engine probes dirty" (Incr.selfcheck_now t);
      check_matches_oracle "healed after explicit probe" t)

(* No false positives: long random churn under cadence 1 must never trip
   the sentinel — the probe tolerance has to absorb the legitimate
   float divergence between incremental relaxation and fresh Dijkstra. *)
let sentinel_no_false_positives =
  QCheck.Test.make ~count:20 ~name:"sentinel: clean churn never trips"
    QCheck.(pair (int_range 8 20) small_nat)
    (fun (n, seed) ->
      with_profiling (fun () ->
          let r = rng (7000 + seed) in
          let t = Incr.of_graph (random_graph r n (n / 2)) in
          Incr.set_selfcheck t 1;
          let mismatches0 = counter "incr_apsp.selfcheck_mismatches" in
          for _ = 1 to 40 do
            let u = Gncg_util.Prng.int r n and v = Gncg_util.Prng.int r n in
            if u <> v then
              if Gncg_graph.Wgraph.has_edge (Incr.graph t) u v then
                ignore (Incr.remove_edge t u v)
              else ignore (Incr.add_edge t u v (Gncg_util.Prng.float_in r 0.5 4.0))
          done;
          counter "incr_apsp.selfcheck_mismatches" = mismatches0))

(* Net_state layer: after injection + repair, the equilibrium verdict
   must match a from-scratch evaluation of the same profile. *)
let test_net_state_verdict_after_repair () =
  let r = rng 902 in
  let host = Gncg_workload.Instances.random_host r
      (Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 6.0 }) ~n:14 ~alpha:2.0 in
  let profile =
    match
      Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host (Gncg_workload.Instances.random_profile r host)
    with
    | Gncg.Dynamics.Converged { profile; _ } -> profile
    | _ -> Alcotest.fail "dynamics did not converge"
  in
  let st = Gncg.Net_state.create host profile in
  Incr.set_selfcheck (Gncg.Net_state.store st) 1;
  Incr.inject_cell_error (Gncg.Net_state.store st) 1 7 0.5;
  check_false "probe detects the injected cell" (Gncg.Net_state.selfcheck_now st);
  check_true "state consistent after repair" (Gncg.Net_state.check_consistent st);
  (* The repair is the one producer of a [full] change report: a drain
     reports it once, and the next drain is empty. *)
  let ch = Gncg.Net_state.drain_changes st in
  check_true "repair drains as full" ch.Gncg.Net_state.full;
  let ch = Gncg.Net_state.drain_changes st in
  check_false "second drain not full" ch.Gncg.Net_state.full;
  check_true "second drain has no rows" (Gncg_graph.Changed_rows.cardinal ch.Gncg.Net_state.rows = 0);
  check_true "second drain has no pairs" (ch.Gncg.Net_state.pairs = []);
  let n = Gncg.Host.n host in
  for u = 0 to n - 1 do
    check_float
      (Printf.sprintf "agent %d cost matches from-scratch" u)
      (Gncg.Cost.agent_cost host profile u)
      (Gncg.Net_state.agent_cost st u)
  done;
  (* The dynamics converged, so the from-scratch verdict is stable; the
     repaired state must agree through its cost view (checked per agent
     above) rather than reintroduce the corrupt cell. *)
  check_true "converged profile is greedy-stable" (Gncg.Equilibrium.is_ge host profile)

(* A cadence-1 dynamics run over a sentinel-enabled engine must converge
   to the same stable cost as an unchecked one (the sentinel is
   transparent when nothing is corrupt). *)
let test_dynamics_transparent_under_sentinel () =
  let run selfcheck =
    if selfcheck then Incr.set_default_selfcheck 1;
    Fun.protect
      ~finally:(fun () -> Incr.set_default_selfcheck 0)
      (fun () ->
        let r = rng 903 in
        let host = Gncg_workload.Instances.random_host r
            (Gncg_workload.Instances.Euclid { norm = L2; d = 2; box = 50.0 })
            ~n:16 ~alpha:3.0 in
        match
          Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host (Gncg_workload.Instances.random_profile r host)
        with
        | Gncg.Dynamics.Converged { profile; steps; _ } ->
          (Gncg.Cost.social_cost host profile, List.length steps)
        | _ -> Alcotest.fail "dynamics did not converge")
  in
  let cost_plain, steps_plain = run false in
  let cost_checked, steps_checked = run true in
  check_float "stable cost unchanged" cost_plain cost_checked;
  Alcotest.(check int) "step count unchanged" steps_plain steps_checked

(* Inject -> detect -> repair on a tree: the probe loop may sample rows,
   so it is repeated n times; once the fault is caught the engine must
   probe clean and agree with a fresh Dijkstra everywhere. *)
let test_sentinel_dense () =
  let n = 12 in
  let graph () =
    Gncg_graph.Generators.random_tree (rng 21) ~n ~wmin:1.0 ~wmax:10.0
  in
  let t = Incr.of_graph (graph ()) in
  check_true "dense clean probe" (Incr.selfcheck_now t);
  Incr.inject_cell_error t 1 3 0.5;
  let detected = ref false in
  for _ = 1 to n do
    if not (Incr.selfcheck_now t) then detected := true
  done;
  check_true "dense detects injected fault" !detected;
  check_true "dense healed" (Incr.selfcheck_now t);
  let reference = Dijkstra.apsp (graph ()) in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if not (approx (Incr.distance t u v) reference.(u).(v)) then
        Alcotest.failf "dense after repair: d(%d,%d) = %g, oracle %g" u v
          (Incr.distance t u v) reference.(u).(v)
    done
  done

(* --- the rounding model at large weights --- *)

(* Insertion-only sequences at weights around 10⁸, where an ulp is
   about 1.5e-8: every probe must find the matrix clean.  Insertion
   rows associate their sums otherwise than a fresh pass and than the
   mirror row, so an absolute 1e-9 would call their legitimate ulps
   drift and rebuild. *)
let test_no_false_alarm_at_scale () =
  with_profiling (fun () ->
      let r = rng 904 in
      let mismatches0 = counter "incr_apsp.selfcheck_mismatches" in
      let probes = ref 0 in
      for trial = 1 to 20 do
        let n = 8 + Gncg_util.Prng.int r 23 in
        let t = Incr.of_graph (Gncg_graph.Wgraph.create n) in
        for _ = 1 to 4 * n do
          let u = Gncg_util.Prng.int r n and v = Gncg_util.Prng.int r n in
          if u <> v && not (Gncg_graph.Wgraph.has_edge (Incr.graph t) u v) then begin
            ignore (Incr.add_edge t u v (1e8 *. Gncg_util.Prng.float_in r 1.0 10.0));
            incr probes;
            if not (Incr.selfcheck_now t) then
              Alcotest.failf "trial %d, probe %d: false mismatch" trial !probes
          end
        done
      done;
      check_true "probes ran" (!probes > 1000);
      Alcotest.(check int) "no mismatch counted" mismatches0
        (counter "incr_apsp.selfcheck_mismatches"))

(* Every adversarial host, the weight-magnitude family included, after
   four rounds of greedy moves on a [Net_state]: the maintained matrix
   passes [check_consistent] after every round. *)
let test_consistent_after_dynamics () =
  let r = rng 905 in
  List.iter
    (fun (name, make) ->
      for trial = 1 to 3 do
        let n = 10 + Gncg_util.Prng.int r 15 in
        let host = make n in
        let st = Gncg.Net_state.create host (Gncg_workload.Instances.random_profile r host) in
        for round = 1 to 4 do
          for u = 0 to n - 1 do
            match fst (Gncg.Fast_response.best_move_state_verdict st ~agent:u) with
            | Some (mv, _) -> ignore (Gncg.Net_state.apply_move st ~agent:u mv)
            | None -> ()
          done;
          if not (Gncg.Net_state.check_consistent st) then
            Alcotest.failf "%s n=%d trial %d: inconsistent after round %d" name n trial round
        done
      done)
    (adversarial_hosts r ~alpha:2.0)

let suites =
  [
    ("distances-sentinel", [ case "sentinel dense" test_sentinel_dense ]);
    ( "sentinel",
      [
        case "single-cell perturbation detected in one window"
          test_single_cell_perturbation_detected;
        case "explicit probe detects and heals" test_selfcheck_now_detects_and_heals;
        case "net-state verdict matches from-scratch after repair"
          test_net_state_verdict_after_repair;
        case "dynamics transparent under cadence 1"
          test_dynamics_transparent_under_sentinel;
        QCheck_alcotest.to_alcotest sentinel_no_false_positives;
        case "no false alarm at weights near 1e8" test_no_false_alarm_at_scale;
        case "check_consistent after dynamics on adversarial hosts"
          test_consistent_after_dynamics;
      ] );
  ]
