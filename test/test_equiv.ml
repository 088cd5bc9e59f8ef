(* The equivalence gate of the dynamics engine.  Greedy and add-only
   dynamics run on one [Net_state], picking moves with [Fast_response]
   and skipping agents proved idle.  Their specification is the
   stateless loop of [Helpers.stateless_dynamics]: every move from
   [Dynamics.deviation] (the [Greedy] scan), every idle mark cleared
   after each move.  Both must end in the same outcome, take the same
   steps and reach equal profiles.  Step costs must agree bit for bit
   on the integer-weighted hosts, where every sum is exact, and within
   [float_ulps] on the float-weighted ones (see [Helpers.same_steps]). *)

open Helpers
module Dyn = Gncg.Dynamics
module Prng = Gncg_util.Prng
module I = Gncg_workload.Instances

let rules = [ ("greedy", Dyn.Greedy_response); ("add-only", Dyn.Add_only) ]

let outcome_name = function
  | Dyn.Converged { steps; _ } -> Printf.sprintf "converged after %d steps" (List.length steps)
  | Dyn.Cycle { steps; _ } -> Printf.sprintf "cycle after %d steps" (List.length steps)
  | Dyn.Out_of_steps { steps; _ } -> Printf.sprintf "out of steps after %d steps" (List.length steps)

(* Runs the engine and the stateless loop from the same host, start and
   scheduler state ([mk_scheduler] builds a fresh copy per run). *)
let check_equivalent ?ulps label ~max_steps rule mk_scheduler host start =
  let engine = Dyn.run (Dyn.Config.make ~max_steps rule (mk_scheduler ())) host start in
  let spec = stateless_dynamics ~max_steps rule (mk_scheduler ()) host start in
  if not (same_trajectory ?ulps engine spec) then
    Alcotest.failf "%s: engine %s, stateless loop %s" label (outcome_name engine)
      (outcome_name spec)

(* [Sweep.dynamics_run]'s setup, step for step, at the CLI's default
   alpha: host and start from the seed's generator, then a [Random_order]
   scheduler split from it. *)
let test_sweep_setups () =
  let n = 14 and alpha = 2.0 and max_steps = 5000 in
  List.iter
    (fun (name, model) ->
      for seed = 1 to 4 do
        let rng = Prng.create seed in
        let host = I.random_host rng model ~n ~alpha in
        let start = I.random_profile rng host in
        let sched = Prng.split rng in
        let mk_scheduler () = Dyn.Random_order (Prng.copy sched) in
        List.iter
          (fun (rule_name, rule) ->
            check_equivalent ~ulps:float_ulps
              (Printf.sprintf "%s seed %d %s" name seed rule_name)
              ~max_steps rule mk_scheduler host start)
          rules;
        (* The setup above is the sweep's: its step count matches. *)
        let run = Gncg_runs.Job.execute (Gncg_runs.Job.make model ~n ~alpha ~seed) in
        match stateless_dynamics ~max_steps Dyn.Greedy_response (mk_scheduler ()) host start with
        | Dyn.Converged { steps; _ } ->
          check_true (Printf.sprintf "%s seed %d: sweep row" name seed)
            (run.converged && run.steps = List.length steps)
        | Dyn.Cycle { steps; _ } | Dyn.Out_of_steps { steps; _ } ->
          check_true (Printf.sprintf "%s seed %d: sweep row" name seed)
            ((not run.converged) && run.steps = List.length steps)
      done)
    cli_models

(* Hosts where exact cost ties are everywhere: the all-ones host (the
   classical NCG) and random 1-2 hosts, 20 random starts per host, n and
   alpha, each run under both rules and both schedulers (2,400 pairs). *)
let test_tie_heavy_hosts () =
  let r = rng 2200 in
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          let hosts =
            [
              ("all-ones", Gncg.Host.make ~alpha (Gncg_metric.Metric.make n (fun _ _ -> 1.0)));
              ("1-2", Gncg.Host.make ~alpha (Gncg_metric.One_two.random r ~n ~p_one:0.5));
            ]
          in
          List.iter
            (fun (host_name, host) ->
              for trial = 1 to 20 do
                let start = I.random_profile r host in
                let sched = Prng.split r in
                List.iter
                  (fun (sched_name, mk_scheduler) ->
                    List.iter
                      (fun (rule_name, rule) ->
                        check_equivalent
                          (Printf.sprintf "%s n=%d alpha=%g trial %d %s %s" host_name n alpha
                             trial rule_name sched_name)
                          ~max_steps:5000 rule mk_scheduler host start)
                      rules)
                  [
                    ("round robin", fun () -> Dyn.Round_robin);
                    ("random order", fun () -> Dyn.Random_order (Prng.copy sched));
                  ]
              done)
            hosts)
        [ 0.5; 1.0; 2.0; 3.0; 8.0 ])
    [ 6; 10; 14 ]

let suites =
  [
    ( "dynamics-equivalence",
      [
        case "sweep setups, all CLI models" test_sweep_setups;
        case "tie-heavy hosts" test_tie_heavy_hosts;
      ] );
  ]
