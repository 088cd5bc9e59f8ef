open Helpers
module Prng = Gncg_util.Prng
module Dyn = Gncg.Dynamics
module Eq = Gncg.Equilibrium
module Strategy = Gncg.Strategy

let small_metric_host r ~n ~alpha =
  Gncg.Host.make ~alpha (Gncg_metric.Random_host.uniform_metric r ~n ~lo:1.0 ~hi:5.0)

let test_converged_is_equilibrium () =
  let r = rng 400 in
  let checked = ref 0 in
  for _ = 1 to 10 do
    let host = small_metric_host r ~n:6 ~alpha:(0.5 +. Prng.float r 2.0) in
    let start = Gncg_workload.Instances.random_profile r host in
    (match
       Dyn.run (Dyn.Config.make ~max_steps:4000 Dyn.Greedy_response Dyn.Round_robin) host start
     with
    | Dyn.Converged { profile; _ } ->
      incr checked;
      check_true "converged => GE" (Eq.is_ge host profile)
    | _ -> ());
    match
      Dyn.run (Dyn.Config.make ~max_steps:600 Dyn.Best_response Dyn.Round_robin) host start
    with
    | Dyn.Converged { profile; _ } ->
      incr checked;
      check_true "converged => NE" (Eq.is_ne host profile)
    | _ -> ()
  done;
  check_true "at least some runs converged" (!checked > 0)

let test_add_only_always_converges () =
  let r = rng 401 in
  for _ = 1 to 10 do
    let host = small_metric_host r ~n:7 ~alpha:1.0 in
    (* Start connected: from the empty profile a single purchase cannot
       rescue an infinite cost, so add-only dynamics idle there. *)
    let start = Gncg_workload.Instances.random_profile r host in
    match
      Dyn.run (Dyn.Config.make ~max_steps:5000 Dyn.Add_only Dyn.Round_robin) host start
    with
    | Dyn.Converged { profile; _ } ->
      check_true "result is AE" (Eq.is_ae host profile);
      check_true "result connected" (network_connected host profile)
    | _ -> Alcotest.fail "add-only dynamics cannot cycle (edge set grows)"
  done;
  (* The empty-start plateau itself: dynamics converge immediately. *)
  let host = small_metric_host r ~n:6 ~alpha:1.0 in
  match
    Dyn.run (Dyn.Config.make ~max_steps:100 Dyn.Add_only Dyn.Round_robin) host (Strategy.empty 6)
  with
  | Dyn.Converged { profile; steps; _ } ->
    check_true "no moves from empty" (steps = []);
    check_true "still empty" (Strategy.equal profile (Strategy.empty 6))
  | _ -> Alcotest.fail "empty start must converge instantly"

let test_steps_strictly_improve () =
  let r = rng 402 in
  let host = small_metric_host r ~n:6 ~alpha:1.5 in
  let start = Gncg_workload.Instances.random_profile r host in
  match Dyn.run (Dyn.Config.make ~max_steps:2000 Dyn.Greedy_response Dyn.Round_robin) host start with
  | Dyn.Converged { steps; _ } | Dyn.Cycle { steps; _ } | Dyn.Out_of_steps { steps; _ } ->
    List.iter
      (fun (st : Dyn.step) ->
        check_true "strict improvement" (st.after_cost < st.before_cost))
      steps

let test_deviation_none_at_ne () =
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:2.0 ~n:5 in
  let ne = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:2.0 ~n:5 in
  for u = 0 to 4 do
    check_true "no deviation at NE" (Dyn.deviation Dyn.Best_response host ne u = None)
  done

let test_out_of_steps () =
  let r = rng 403 in
  let host = small_metric_host r ~n:6 ~alpha:1.0 in
  let start = Strategy.empty 6 in
  match Dyn.run (Dyn.Config.make ~max_steps:1 Dyn.Add_only Dyn.Round_robin) host start with
  | Dyn.Out_of_steps _ -> ()
  | Dyn.Converged _ -> Alcotest.fail "cannot converge in one step from empty"
  | Dyn.Cycle _ -> Alcotest.fail "cannot cycle in one step"

let test_random_scheduler_runs () =
  let r = rng 404 in
  let host = small_metric_host r ~n:5 ~alpha:1.0 in
  let start = Gncg_workload.Instances.random_profile r host in
  let scheduler = Dyn.Random_order (Prng.create 99) in
  match Dyn.run (Dyn.Config.make ~max_steps:3000 Dyn.Greedy_response scheduler) host start with
  | Dyn.Converged { profile; _ } -> check_true "GE under random order" (Eq.is_ge host profile)
  | Dyn.Cycle { profiles; _ } ->
    check_true "cycle is verified" (Gncg_constructions.Brcycle.verify_cycle host profiles)
  | Dyn.Out_of_steps _ -> ()

let test_cycle_certificates_verified () =
  (* Hunt for improving-move cycles on small hosts; every reported cycle
     must pass independent verification.  (Existence is exercised again in
     the FIP experiment E10.) *)
  let r = rng 405 in
  let found = ref 0 in
  for _ = 1 to 30 do
    let n = 4 + Prng.int r 3 in
    let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 5) in
    let host = Gncg_workload.Instances.random_host r model ~n ~alpha:(0.5 +. Prng.float r 3.0) in
    match Gncg_constructions.Brcycle.search_host ~tries:3 ~max_steps:300 r host with
    | Some f ->
      incr found;
      check_true "certificate verifies" (Gncg_constructions.Brcycle.verify_cycle f.host f.cycle)
    | None -> ()
  done;
  (* Not finding any cycle is possible but unexpected; record it loudly. *)
  if !found = 0 then Printf.printf "  note: no improving cycles found in this search budget\n"

let random_game seed ~n =
  let r = Prng.create seed in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 6) in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
  let s = Gncg_workload.Instances.random_profile r host in
  (host, s)

(* Same constructor, same rounds, same step list bit for bit, and
   structurally equal profiles. *)
let outcomes_identical a b =
  match (a, b) with
  | ( Dyn.Converged { profile = p1; rounds = r1; steps = s1 },
      Dyn.Converged { profile = p2; rounds = r2; steps = s2 } ) ->
    Strategy.equal p1 p2 && r1 = r2 && same_steps s1 s2
  | Dyn.Cycle { profiles = ps1; steps = s1 }, Dyn.Cycle { profiles = ps2; steps = s2 } ->
    List.length ps1 = List.length ps2
    && List.for_all2 Strategy.equal ps1 ps2
    && same_steps s1 s2
  | ( Dyn.Out_of_steps { profile = p1; steps = s1 },
      Dyn.Out_of_steps { profile = p2; steps = s2 } ) ->
    Strategy.equal p1 p2 && same_steps s1 s2
  | _ -> false

(* --- collision-safe cycle detection ---

   [spec_run] is the run loop of {!Helpers.spec_dynamics}: revisits are
   found through [Strategy.canonical_key], and every agent is
   re-evaluated after each move — statelessly, or ([~net_state:true])
   on one [Net_state] with [Fast_response.best_move_state_verdict].  With the
   pair hash forced constant, every lookup of [Dyn.run]'s visited set
   collides, so only its [Strategy.equal] confirmation separates
   revisits from collisions: the outcome must still be the spec's. *)

let spec_run ?(net_state = false) ~max_steps rule scheduler host start =
  if not net_state then stateless_dynamics ~max_steps rule scheduler host start
  else
    let kinds = match rule with Dyn.Add_only -> [ `Add ] | _ -> [ `Add; `Delete; `Swap ] in
    let st = Gncg.Net_state.create host start in
    spec_dynamics ~max_steps scheduler start ~attempt:(fun _ u ->
        match fst (Gncg.Fast_response.best_move_state_verdict ~kinds st ~agent:u) with
        | None -> None
        | Some (mv, gain) ->
          let before = Gncg.Net_state.agent_cost st u in
          Some (Gncg.Net_state.apply_move st ~agent:u mv, gain, before))

let with_colliding_hash f =
  Dyn.Visited.pair_hash := (fun _ _ -> 0);
  Fun.protect ~finally:(fun () -> Dyn.Visited.pair_hash := Dyn.Visited.default_pair_hash) f

(* Runs [rule] under [scheduler] (both rebuilt from their seeds for each
   run) through [Dyn.run], with a colliding hash and with the default
   one, and through the spec.  Greedy and add-only runs keep provably
   idle agents idle across moves, so they are held to the spec's
   trajectory and not to its [rounds]. *)
let collision_case ~net_state ~max_steps mk_rule mk_scheduler host start =
  let run () = Dyn.run (Dyn.Config.make ~max_steps (mk_rule ()) (mk_scheduler ())) host start in
  let colliding = with_colliding_hash run and default = run () in
  let spec = spec_run ~net_state ~max_steps (mk_rule ()) (mk_scheduler ()) host start in
  outcomes_identical colliding default
  &&
  match mk_rule () with
  | Dyn.Greedy_response | Dyn.Add_only ->
    same_trajectory ?ulps:(if net_state then None else Some float_ulps) default spec
  | Dyn.Best_response | Dyn.Random_improving _ -> outcomes_identical default spec

let test_colliding_hash_random_games () =
  for seed = 0 to 7 do
    let host, start = random_game (700 + seed) ~n:6 in
    let round_robin () = Dyn.Round_robin in
    let random_order () = Dyn.Random_order (Prng.create (31 * seed)) in
    let const rule () = rule in
    let improving () = Dyn.Random_improving (Prng.create seed) in
    List.iter
      (fun (name, mk_rule, mk_scheduler, net_state) ->
        check_true name
          (collision_case ~net_state ~max_steps:600 mk_rule mk_scheduler host start))
      [
        ("greedy, round robin", const Dyn.Greedy_response, round_robin, false);
        ("greedy, random order", const Dyn.Greedy_response, random_order, false);
        ("best response", const Dyn.Best_response, round_robin, false);
        ("random improving", improving, random_order, false);
        ("add only", const Dyn.Add_only, round_robin, false);
        ("net-state greedy", const Dyn.Greedy_response, round_robin, true);
        ("net-state greedy, random order", const Dyn.Greedy_response, random_order, true);
        ("net-state add only", const Dyn.Add_only, random_order, true);
      ]
  done

(* The E10 live search on the Fig. 8 host (as in the Random_improving
   cycle test above), each try run with a colliding hash and through the
   spec from copies of the same rng states, until the first cycle. *)
let test_colliding_hash_fig8 () =
  let module B = Gncg_constructions.Brcycle in
  let host = B.fig8_host ~alpha:1.0 in
  let rng = Prng.create 998 and rule_rng = Prng.create 0xC1C1E in
  let rec try_ k =
    if k = 0 then Alcotest.fail "Random_improving must find a cycle on the Fig. 8 host"
    else begin
      let start = B.random_profile rng host in
      let sched_rng = Prng.split rng in
      let run rule_rng sched_rng =
        Dyn.run
          (Dyn.Config.make ~max_steps:1500 (Dyn.Random_improving rule_rng)
             (Dyn.Random_order sched_rng))
          host start
      in
      let spec =
        spec_run ~max_steps:1500
          (Dyn.Random_improving (Prng.copy rule_rng))
          (Dyn.Random_order (Prng.copy sched_rng))
          host start
      in
      let default = run (Prng.copy rule_rng) (Prng.copy sched_rng) in
      let engine = with_colliding_hash (fun () -> run rule_rng sched_rng) in
      check_true "Fig. 8: default hash = spec" (outcomes_identical default spec);
      check_true "Fig. 8: colliding hash = spec" (outcomes_identical engine spec);
      match engine with Dyn.Cycle _ -> () | _ -> try_ (k - 1)
    end
  in
  try_ 150

(* [Random_improving]: a uniformly random improving single-edge move,
   drawn from the improving candidates of [Greedy.gains]. *)

let test_random_improving_replays () =
  let moved = ref 0 in
  for seed = 0 to 5 do
    let host, start = random_game (500 + seed) ~n:7 in
    let go () =
      Dyn.run
        (Dyn.Config.make ~max_steps:400 (Dyn.Random_improving (Prng.create seed))
           Dyn.Round_robin)
        host start
    in
    let a = go () in
    check_true "same outcome from the same seed" (outcomes_identical a (go ()));
    match a with
    | Dyn.Converged { steps; _ } | Dyn.Cycle { steps; _ } | Dyn.Out_of_steps { steps; _ } ->
      List.iter
        (fun (st : Dyn.step) ->
          check_true "recorded step strictly improves" (st.after_cost < st.before_cost))
        steps;
      moved := !moved + List.length steps
  done;
  check_true "some runs moved" (!moved > 0)

(* The single-edge move that turns [s] into [s'] for agent [u], if that
   is all that changed. *)
let move_between s s' u =
  let module I = Strategy.ISet in
  let others_kept =
    List.for_all
      (fun v -> v = u || I.equal (Strategy.strategy s v) (Strategy.strategy s' v))
      (List.init (Strategy.n s) Fun.id)
  in
  let a = Strategy.strategy s u and b = Strategy.strategy s' u in
  match (others_kept, I.elements (I.diff b a), I.elements (I.diff a b)) with
  | true, [ v ], [] -> Some (Gncg.Move.Add v)
  | true, [], [ v ] -> Some (Gncg.Move.Delete v)
  | true, [ t ], [ o ] -> Some (Gncg.Move.Swap (o, t))
  | _ -> None

let test_random_improving_steps_are_move_gains () =
  let bits = Int64.bits_of_float in
  let moved = ref 0 in
  for seed = 0 to 5 do
    let host, start = random_game (600 + seed) ~n:7 in
    let rule = Dyn.Random_improving (Prng.create seed) in
    let rec walk s k =
      if k < 60 then begin
        let u = k mod Strategy.n s in
        match Dyn.deviation rule host s u with
        | None -> walk s (k + 1)
        | Some (s', gain) ->
          incr moved;
          (match move_between s s' u with
          | None -> Alcotest.fail "a random improving step is one single-edge move"
          | Some mv ->
            check_true "gain is Greedy.move_gain, bit for bit"
              (Int64.equal (bits gain) (bits (Gncg.Greedy.move_gain host s ~agent:u mv)));
            check_true "strict improvement"
              (gain > Gncg_util.Flt.eps
              && Gncg.Cost.agent_cost host s' u < Gncg.Cost.agent_cost host s u));
          walk s' (k + 1)
      end
    in
    walk start 0
  done;
  check_true "some deviations found" (!moved > 0)

(* The E10 live search on the Fig. 8 host, under [Random_improving] alone. *)
let test_random_improving_fig8_cycle () =
  let module B = Gncg_constructions.Brcycle in
  match
    B.search_host
      ~rules:[ Dyn.Random_improving (Prng.create 0xC1C1E) ]
      ~tries:150 ~max_steps:1500 (Prng.create 998) (B.fig8_host ~alpha:1.0)
  with
  | None -> Alcotest.fail "Random_improving must find a cycle on the Fig. 8 host"
  | Some f ->
    check_true "certificate verifies" (B.verify_cycle f.host f.cycle);
    Alcotest.(check int) "cycle length (profiles, first = last)" 11 (List.length f.cycle)

let test_config_defaults () =
  let cfg = Dyn.Config.make Dyn.Greedy_response Dyn.Round_robin in
  Alcotest.(check int) "default max_steps" 10_000 cfg.Dyn.Config.max_steps;
  check_true "no metrics record" (cfg.Dyn.Config.metrics = None)

let suites =
  [
    ( "dynamics",
      [
        case "converged profiles are equilibria" test_converged_is_equilibrium;
        case "add-only always converges" test_add_only_always_converges;
        case "steps strictly improve" test_steps_strictly_improve;
        case "no deviation at NE" test_deviation_none_at_ne;
        case "out of steps" test_out_of_steps;
        case "random scheduler" test_random_scheduler_runs;
        slow_case "cycle certificates verify" test_cycle_certificates_verified;
        case "random improving replays" test_random_improving_replays;
        case "random improving steps are move gains" test_random_improving_steps_are_move_gains;
        slow_case "random improving Fig. 8 cycle" test_random_improving_fig8_cycle;
        case "config defaults" test_config_defaults;
        case "colliding hash = canonical-key spec" test_colliding_hash_random_games;
        slow_case "colliding hash on the Fig. 8 host" test_colliding_hash_fig8;
      ] );
  ]
