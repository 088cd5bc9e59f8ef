let () =
  Alcotest.run "gncg"
    (Test_util.suites @ Test_graph.suites @ Test_centrality.suites
   @ Test_generators.suites @ Test_metric.suites @ Test_game.suites
   @ Test_facility.suites @ Test_best_response.suites @ Test_equilibrium.suites
   @ Test_dynamics.suites @ Test_optimum.suites @ Test_spanner_nash.suites
   @ Test_constructions.suites @ Test_reductions.suites @ Test_pos.suites
   @ Test_workload.suites @ Test_fast.suites @ Test_quality.suites
   @ Test_serialize.suites @ Test_guards.suites @ Test_coverage.suites
   @ Test_props.suites @ Test_incr.suites @ Test_flat.suites @ Test_runs.suites
   @ Test_obs.suites @ Test_exec.suites @ Test_error.suites @ Test_sentinel.suites
   @ Test_chaos.suites @ Test_serve.suites
   @ Test_kernel.suites @ Test_scan.suites @ Test_equiv.suites)
