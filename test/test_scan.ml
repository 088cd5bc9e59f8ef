(* The single-move scan against its specification, bit for bit.
   [Greedy.scan], [gains], [best_single_move_cost] and the greedy
   [Equilibrium] checks assemble every moved row from a pass on the
   network, one what-if per sold edge and one bounded pass per addable
   target; [Greedy.move_gain] rebuilds the moved network.  With a
   [Greedy.profile] (the network and its row from every vertex, built
   once per profile) [scan] first tries to clear the agent from bounds
   on those rows and runs the exact scan only where a bound cannot: its
   answer must be the exact scan's, including every agent the bounds
   clear.  Every gain, cost and grievance must agree exactly, compared
   by [Int64.bits_of_float], never within a tolerance. *)

module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Metric = Gncg_metric.Metric
module Strategy = Gncg.Strategy
module Move = Gncg.Move
module Greedy = Gncg.Greedy
module Eq = Gncg.Equilibrium
module D = Gncg.Dynamics
module Random_host = Gncg_metric.Random_host

let seed_gen = QCheck.small_nat

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Host weights are integers 1-3 (equal-cost moves are common, so
   tie-breaking is exercised), fractions in [0.5, 3), or spread over four
   decades, where the order in which edge prices are summed shows in the
   bits; alpha is sometimes a power of two, whose products are exact.
   About one pair in eight is forbidden (infinite weight).  Each endpoint
   buys a pair independently, so double-bought edges are common; sparse
   draws leave the network disconnected, and a forbidden pair is
   sometimes bought anyway (priced at infinity, absent from the network). *)
let random_game seed =
  let r = Prng.create (seed + 1400) in
  let n = 4 + Prng.int r 7 in
  let weight =
    match Prng.int r 3 with
    | 0 -> fun () -> float_of_int (1 + Prng.int r 3)
    | 1 -> fun () -> Prng.float_in r 0.5 3.0
    | _ -> fun () -> Float.pow 10.0 (Prng.float_in r (-2.0) 2.0)
  in
  let m =
    Metric.make n (fun _ _ -> if Prng.coin r 0.125 then Float.infinity else weight ())
  in
  let alpha =
    if Prng.coin r 0.4 then List.nth [ 0.5; 1.0; 2.0 ] (Prng.int r 3)
    else 0.3 +. Prng.float r 3.0
  in
  let host = Gncg.Host.make ~alpha m in
  let p = List.nth [ 0.1; 0.3; 0.6 ] (Prng.int r 3) in
  let buys u =
    List.filter
      (fun v ->
        v <> u
        &&
        let w = Gncg.Host.weight host u v in
        Prng.coin r (if Float.is_finite w then p else 0.05))
      (List.init n Fun.id)
  in
  (host, Strategy.of_lists n (List.init n (fun u -> (u, buys u))))

(* Spanning trees where every agent but the root buys one edge towards an
   earlier agent, at a price that makes additions dear: deleting
   disconnects and adding costs more than it saves, so the best move is
   often a swap.  Now and then an agent also buys a second edge, so swaps
   of an edge whose deletion keeps the network connected occur too. *)
let swap_game seed =
  let host, _ = random_game seed in
  let r = Prng.create (seed + 2800) in
  let n = Gncg.Host.n host in
  let alpha = 1.0 +. Prng.float r 5.0 in
  let host = Gncg.Host.make ~alpha (Gncg.Host.metric host) in
  let finite u v = Float.is_finite (Gncg.Host.weight host u v) in
  let buys u =
    if u = 0 then []
    else
      let pick () = Prng.int r u in
      let first = pick () in
      let first = if finite u first then first else 0 in
      let extra = pick () in
      if extra <> first && Prng.coin r 0.2 then [ first; extra ] else [ first ]
  in
  (host, Strategy.of_lists n (List.init n (fun u -> (u, buys u))))

let kind_sets = [ [ `Add ]; [ `Add; `Delete; `Swap ]; [ `Delete; `Swap ]; [ `Swap ] ]

let rebuild_gain host s ~agent mv = Greedy.move_gain host s ~agent mv

(* The pick rule folded over the rebuild-path gain of every candidate
   ([gain], [rebuild_gain] by default). *)
let spec_best ?(gain = rebuild_gain) ~kinds host s ~agent =
  List.fold_left
    (fun acc mv ->
      let gain = gain host s ~agent mv in
      match acc with
      | Some (_, g) when g >= gain -> acc
      | _ when gain > Flt.eps -> Some (mv, gain)
      | _ -> acc)
    None
    (Move.candidates ~kinds host s ~agent)

let spec_best_cost ?gain ~kinds host s ~agent =
  let current = Gncg.Cost.agent_cost host s agent in
  match spec_best ?gain ~kinds host s ~agent with
  | None -> current
  | Some (mv, gain) when gain = Float.infinity ->
    Gncg.Cost.agent_cost host (Move.apply s ~agent mv) agent
  | Some (_, gain) -> current -. gain

let same_pick a b =
  match (a, b) with
  | None, None -> true
  | Some (mv, g), Some (mv', g') -> mv = mv' && same g g'
  | _ -> false

let best_move_exact ?gain (host, s) =
  let profile = Greedy.prepare host s in
  List.for_all
    (fun kinds ->
      List.for_all
        (fun agent ->
          let current, best = Greedy.scan ~kinds host s ~agent in
          let current', best' = Greedy.scan ~kinds ~profile host s ~agent in
          same_pick best (spec_best ?gain ~kinds host s ~agent)
          && same_pick best' best
          && same current (Gncg.Cost.agent_cost host s agent)
          && same current' current
          && same
               (Greedy.best_single_move_cost ~kinds host s ~agent)
               (spec_best_cost ?gain ~kinds host s ~agent))
        (List.init (Strategy.n s) Fun.id))
    kind_sets

(* Certify's grievances, from the specification: every agent whose best
   single-move cost beats its current cost, largest saving first. *)
let spec_grievances ?gain kind host s =
  let kinds = match kind with Eq.AE -> [ `Add ] | _ -> [ `Add; `Delete; `Swap ] in
  List.filter_map
    (fun u ->
      let current = Gncg.Cost.agent_cost host s u in
      let best = spec_best_cost ?gain ~kinds host s ~agent:u in
      if Flt.lt best current then Some (u, current, best) else None)
    (List.init (Strategy.n s) Fun.id)
  |> List.stable_sort (fun (_, c, b) (_, c', b') -> Float.compare (c' -. b') (c -. b))

let certify_exact ?gain (host, s) =
  List.for_all
    (fun kind ->
      let got =
        match Eq.certify kind host s with
        | Ok () -> []
        | Error gs ->
          List.map (fun g -> Eq.(g.agent, g.current_cost, g.best_cost, g.deviation)) gs
      in
      let want = spec_grievances ?gain kind host s in
      List.length got = List.length want
      && List.for_all2
           (fun (u, c, b, dev) (u', c', b') -> u = u' && same c c' && same b b' && dev = None)
           got want)
    [ Eq.GE; Eq.AE ]

let prop_certify_exact seed = certify_exact (random_game seed)

(* [Greedy.gains]: the current cost and every candidate's gain, in
   [Move.candidates] order, each the rebuild path's [move_gain]. *)
let gains_exact ?(gain = rebuild_gain) (host, s) =
  List.for_all
    (fun kinds ->
      List.for_all
        (fun agent ->
          let current, got = Greedy.gains ~kinds host s ~agent in
          let cands = Move.candidates ~kinds host s ~agent in
          same current (Gncg.Cost.agent_cost host s agent)
          && List.length got = List.length cands
          && List.for_all2
               (fun (mv, g) mv' -> mv = mv' && same g (gain host s ~agent mv'))
               got cands)
        (List.init (Strategy.n s) Fun.id))
    kind_sets

let prop_best_move_exact seed = best_move_exact (random_game seed)

let prop_gains_exact seed = gains_exact (random_game seed)

(* The swap-heavy games, where a missed or mispriced swap decides the
   pick. *)
let prop_swap_best_move_exact seed = best_move_exact (swap_game seed)

let prop_swap_gains_exact seed = gains_exact (swap_game seed)

(* Some agent's best single move must be a swap in at least half of the
   swap games (86 of the first 100 today), or the generator has lost its
   bias. *)
let test_swap_game_bias () =
  let swap_best seed =
    let host, s = swap_game seed in
    List.exists
      (fun agent ->
        match spec_best ~kinds:[ `Add; `Delete; `Swap ] host s ~agent with
        | Some (Move.Swap _, _) -> true
        | _ -> false)
      (List.init (Strategy.n s) Fun.id)
  in
  let hits = List.length (List.filter swap_best (List.init 100 Fun.id)) in
  if hits < 50 then Alcotest.failf "only %d of 100 swap games have a swap as a best move" hits

(* Hand-built games, each aimed at one branch of the resumed sums or of
   the sorted edge pricing; pairs not listed weigh 4.  Every agent's
   gains and best move are checked, under every kind set. *)
let fixed_game ?(alpha = 1.0) n weights buys =
  let w u v = Option.value (List.assoc_opt (u, v) weights) ~default:4.0 in
  (Gncg.Host.make ~alpha (Metric.make n w), Strategy.of_lists n buys)

let fixed_games =
  [
    (* Agent 2's row is [11; 1; 0; 1]; adding (2,0) improves vertex 0
       first, so the sum resumes from the empty state.  Swapping (2,1)
       for (2,0) resumes a deletion row at its first +inf. *)
    ( "first improved vertex is index 0",
      fixed_game 4
        [ ((1, 2), 1.0); ((0, 1), 10.0); ((2, 3), 1.0); ((0, 2), 1.5) ]
        [ (2, [ 1; 3 ]); (1, [ 0 ]) ] );
    (* On the path 0-1-2-3-4, adding (0,3) or (0,2) improves vertex 3 or
       2 and leaves the vertices below it as they are. *)
    ( "first improved vertex mid-row",
      fixed_game 5
        [ ((0, 1), 1.0); ((1, 2), 1.0); ((2, 3), 1.0); ((3, 4), 1.0); ((0, 3), 1.5); ((0, 2), 1.2) ]
        [ (0, [ 1 ]); (1, [ 2 ]); (2, [ 3 ]); (3, [ 4 ]) ] );
    (* Vertex 0 is isolated: agent 1's row is [inf; 0; 1; 2; 3], so adding
       (1,4) or (1,3) costs +inf however much it improves, while adding
       (1,0) resumes at the +inf itself and fills it. *)
    ( "+inf before the first improved vertex",
      fixed_game 5
        [ ((1, 2), 1.0); ((2, 3), 1.0); ((3, 4), 1.0); ((1, 4), 1.5); ((1, 3), 1.5); ((0, 1), 1.0) ]
        [ (1, [ 2 ]); (2, [ 3 ]); (3, [ 4 ]) ] );
    (* Agent 0's row is [0; 1; 2; inf; inf]: adding (0,2) improves vertex
       2 and the resumed sum stops at vertex 3's +inf; adding (0,3) fills
       both. *)
    ( "+inf after the first improved vertex",
      fixed_game 5
        [ ((0, 1), 1.0); ((1, 2), 1.0); ((3, 4), 1.0); ((0, 2), 1.5); ((0, 3), 1.0) ]
        [ (0, [ 1 ]); (1, [ 2 ]); (3, [ 4 ]) ] );
    (* Agent 3 owns {1, 2, 5, 6} at prices four decades apart, whose sum
       depends on the order of the additions, and can add or swap to 0
       (below them), 4 (between) or 7 (above).  Agents 1, 2, 5 and 6 own
       nothing. *)
    ( "targets below, between and above the owned set; empty owned sets",
      fixed_game ~alpha:1.3 8
        [
          ((1, 3), 49.7); ((2, 3), 0.0675); ((3, 5), 0.0124); ((3, 6), 1.02);
          ((0, 3), 39.3); ((3, 4), 40.0); ((3, 7), 66.0);
        ]
        [ (3, [ 1; 2; 5; 6 ]); (0, [ 1 ]); (4, [ 5 ]); (7, [ 6 ]) ] );
  ]

let test_fixed_games () =
  List.iter
    (fun (name, game) ->
      if not (gains_exact game) then Alcotest.failf "%s: gains" name;
      if not (best_move_exact game) then Alcotest.failf "%s: best move" name)
    fixed_games

(* Profiles [`Incremental] greedy dynamics converged to at n = 20-40, on
   uniform metric hosts (the certification benchmark's family) and tree
   metrics, each also one random move away from convergence so that
   improving moves exist.  On the uniform hosts almost all of each
   addition pass lies at or above the envelope, so the bounded pass and
   the reused row sums decide most candidates; the tree hosts settle
   more. *)
let converged_games () =
  List.concat_map
    (fun (i, n) ->
      let rng = Prng.create (1500 + i) in
      let metric =
        if i mod 2 = 0 then Random_host.uniform_metric rng ~n ~lo:1.0 ~hi:6.0
        else fst (Random_host.tree_metric rng ~n ~wmin:1.0 ~wmax:10.0)
      in
      let host = Gncg.Host.make ~alpha:2.0 metric in
      let start = Gncg_workload.Instances.random_profile rng host in
      let config =
        D.Config.make ~max_steps:200_000 D.Greedy_response
          D.Round_robin
      in
      match D.run config host start with
      | D.Converged { profile; _ } ->
        let agent = Prng.int rng n in
        let cands = Array.of_list (Move.candidates host profile ~agent) in
        let mv = cands.(Prng.int rng (Array.length cands)) in
        let moved = Move.apply profile ~agent mv in
        [ (host, profile); (host, moved) ]
      | _ -> Alcotest.failf "greedy dynamics did not converge at n = %d" n)
    [ (0, 20); (1, 24); (2, 30); (3, 36); (4, 40) ]

let counter name =
  match Gncg_obs.Metric.find_counter name with
  | Some c -> Gncg_obs.Metric.Counter.value c
  | None -> 0

(* Best moves, every gain and certify's grievances against the rebuild
   path, bit for bit, with each rebuild gain computed once per profile.
   The addition passes must settle under half the vertices that the
   scans' passes would settle in full (about a fifth today), or the
   bounded branch went untested; and some sums must resume from a row's
   prefix state, or the resumed branch did. *)
let test_converged_exact () =
  Gncg_obs.Obs.set_profiling true;
  Fun.protect ~finally:(fun () -> Gncg_obs.Obs.set_profiling false) @@ fun () ->
  let settled0 = counter "greedy.settled" in
  let skipped0 = counter "greedy.prefix_skipped" in
  let cells = ref 0 in
  List.iteri
    (fun i game ->
      let memo = Hashtbl.create 4096 in
      let gain host s ~agent mv =
        match Hashtbl.find_opt memo (agent, mv) with
        | Some g -> g
        | None ->
          let g = rebuild_gain host s ~agent mv in
          Hashtbl.add memo (agent, mv) g;
          g
      in
      let p0 = counter "greedy.whatif_sssp" in
      if not (best_move_exact ~gain game) then Alcotest.failf "profile %d: best move" i;
      if not (gains_exact ~gain game) then Alcotest.failf "profile %d: gains" i;
      if not (certify_exact ~gain game) then Alcotest.failf "profile %d: grievances" i;
      cells := !cells + ((counter "greedy.whatif_sssp" - p0) * Strategy.n (snd game)))
    (converged_games ());
  let settled = counter "greedy.settled" - settled0 in
  if !cells = 0 || 2 * settled >= !cells then
    Alcotest.failf "%d vertices settled; passes x n = %d" settled !cells;
  if counter "greedy.prefix_skipped" = skipped0 then
    Alcotest.fail "no sum resumed from a prefix state"

(* --- bound-first certification ---

   [scan ~profile] against [scan] without it, bit for bit, on every host
   of [Helpers.adversarial_hosts] (all 7 CLI models, ties, zero weights,
   four decades, a part no finite weight leaves, weights up to 10^10), at
   three prices, on three profiles each: where greedy dynamics
   converged, a random start, and the converged profile with one agent
   moved to a strictly worse strategy, which it can then leave.  Besides
   AE and GE, deletions and swaps are scanned alone, so that each bound
   is the only one that can clear the agent. *)

let ae = [ `Add ]
and ge = [ `Add; `Delete; `Swap ]

let all_agents s = List.init (Strategy.n s) Fun.id

(* The first agent whose scan differs with and without the profile. *)
let first_scan_difference host s =
  let profile = Greedy.prepare host s in
  List.find_map
    (fun (label, kinds) ->
      List.find_map
        (fun agent ->
          let current, best = Greedy.scan ~kinds host s ~agent in
          let current', best' = Greedy.scan ~kinds ~profile host s ~agent in
          if same current current' && same_pick best best' then None
          else Some (Printf.sprintf "%s, agent %d" label agent))
        (all_agents s))
    [ ("AE", ae); ("GE", ge); ("deletions", [ `Delete ]); ("swaps", [ `Swap ]) ]

(* The converged profile with one agent's first strictly worsening move
   applied, preferring a deletion, whose reverse is also an addition;
   the agent, which can now improve, is returned too. *)
let perturbed host s r =
  let n = Strategy.n s in
  let first = Prng.int r n in
  let try_agent agent =
    let worse = List.filter (fun mv -> Greedy.move_gain host s ~agent mv < -.Flt.eps) in
    let cands = Move.candidates host s ~agent in
    let dels, rest = List.partition (function Move.Delete _ -> true | _ -> false) cands in
    match worse dels @ worse rest with
    | [] -> None
    | mv :: _ -> Some (Move.apply s ~agent mv, agent, mv)
  in
  List.find_map (fun i -> try_agent ((first + i) mod n)) (List.init n Fun.id)

let profiles_of host r =
  let start = Gncg_workload.Instances.random_profile r host in
  let config = D.Config.make ~max_steps:20_000 D.Greedy_response D.Round_robin in
  match D.run config host start with
  | D.Converged { profile; _ } ->
    let moved =
      match perturbed host profile r with
      | None -> []
      | Some (s, agent, mv) ->
        (* The agent's move out of the worse strategy, e.g. the deletion
           undone, must be on offer. *)
        let kinds = match mv with Move.Delete _ -> ae | _ -> ge in
        if snd (Greedy.scan ~kinds host s ~agent) = None then
          Alcotest.failf "agent %d cannot leave a worse strategy" agent;
        [ ("perturbed", s) ]
    in
    [ ("converged", profile); ("random", start) ] @ moved
  | _ -> [ ("random", start) ]

(* The greedy checks of [Equilibrium] under [Seq] and [Par 2]: the same
   verdicts and grievances, bit for bit. *)
let same_checks par host s =
  List.for_all
    (fun kind ->
      let grievances exec =
        match Eq.certify ~exec kind host s with
        | Ok () -> []
        | Error gs -> List.map (fun g -> Eq.(g.agent, g.current_cost, g.best_cost)) gs
      in
      let g1 = grievances Gncg_util.Exec.seq and g2 = grievances par in
      List.length g1 = List.length g2
      && List.for_all2 (fun (u, c, b) (u', c', b') -> u = u' && same c c' && same b b') g1 g2
      && Eq.unhappy_agents kind host s = Eq.unhappy_agents ~exec:par kind host s
      && Eq.is_equilibrium kind host s = Eq.is_equilibrium ~exec:par kind host s
      && Eq.is_equilibrium kind host s = (g1 = []))
    [ Eq.GE; Eq.AE ]

let with_profiling f =
  Gncg_obs.Obs.set_profiling true;
  Fun.protect ~finally:(fun () -> Gncg_obs.Obs.set_profiling false) f

(* Both paths must run: agents the bounds clear and agents they leave to
   the exact scan. *)
let both_paths_ran cleared0 scanned0 =
  if counter "greedy.agents_cleared" = cleared0 then Alcotest.fail "no agent cleared by bounds";
  if counter "greedy.agents_scanned" = scanned0 then Alcotest.fail "no agent scanned exactly"

let test_profile_scan_exact () =
  let r = Prng.create 3700 in
  let par = Gncg_util.Exec.par ~domains:2 () in
  with_profiling @@ fun () ->
  let cleared0 = counter "greedy.agents_cleared" and scanned0 = counter "greedy.agents_scanned" in
  List.iter
    (fun alpha ->
      List.iter
        (fun (name, make) ->
          let n = 8 + Prng.int r 13 in
          let host = make n in
          List.iter
            (fun (label, s) ->
              let where = Printf.sprintf "%s n=%d alpha=%g, %s" name n alpha label in
              (match first_scan_difference host s with
              | Some d -> Alcotest.failf "%s: scans differ (%s)" where d
              | None -> ());
              if not (same_checks par host s) then Alcotest.failf "%s: Seq and Par 2 differ" where)
            (profiles_of host r))
        (Helpers.adversarial_hosts r ~alpha))
    [ 0.5; 2.0; 8.0 ];
  both_paths_ran cleared0 scanned0

(* The own path of [Helpers.magnitudes] weights, as in the tight-targets
   suite: every non-adjacent target is tight, and an addition's row can
   fall short of the agent's by an ulp of a sum far above [Flt.eps].  At
   a price near 0 that shortfall is the whole gain, so a margin that
   cleared it would change the pick.  A chord on a path metric never
   shortens a distance, so every such addition is a rounding-only move,
   and the game tolerance, relative to the agent's cost, must refuse
   each one at every magnitude and price.  With chords (an edge two to
   four steps on, at its metric weight) deleting a redundant chord, or
   swapping it for another, moves the agent's sum by rounding alone too,
   and prices from 1e-17 to 1e-15 put α·w at that rounding's scale.
   Each move kind is scanned alone as well.  The exact scan must take
   the deletions and swaps that gain, and the bounds must leave every
   one of them to it. *)
let test_own_path_rounding () =
  let r = Prng.create 3730 in
  with_profiling @@ fun () ->
  let cleared0 = counter "greedy.agents_cleared" and scanned0 = counter "greedy.agents_scanned" in
  let taken_dels = ref 0 and taken_swaps = ref 0 in
  List.iter
    (fun alpha ->
      List.iter
        (fun scale ->
          for trial = 1 to 4 do
            let n = 6 + Prng.int r 15 in
            let path =
              Gncg_graph.Wgraph.of_edges n
                (List.init (n - 1) (fun i -> (i, i + 1, scale *. Prng.float_in r 1.0 10.0)))
            in
            let host = Gncg.Host.make ~alpha (Metric.of_graph_closure path) in
            let chord i =
              let v = i + 2 + Prng.int r 3 in
              if v < n && Prng.int r 2 = 0 then [ i + 1; v ] else [ i + 1 ]
            in
            List.iter
              (fun (label, buys) ->
                let s = Strategy.of_lists n (List.init (n - 1) (fun i -> (i, buys i))) in
                (match first_scan_difference host s with
                | Some d ->
                  Alcotest.failf "%s, scale %g alpha %g n=%d trial %d: scans differ (%s)" label
                    scale alpha n trial d
                | None -> ());
                List.iter
                  (fun agent ->
                    let taken kinds = snd (Greedy.scan ~kinds host s ~agent) <> None in
                    if taken ae then
                      Alcotest.failf "%s, scale %g alpha %g n=%d trial %d: agent %d takes an addition"
                        label scale alpha n trial agent;
                    if taken [ `Delete ] then incr taken_dels;
                    if taken [ `Swap ] then incr taken_swaps)
                  (all_agents s))
              [ ("path", fun i -> [ i + 1 ]); ("chords", chord) ]
          done)
        Helpers.magnitudes)
    [ 2.0; 1e-12; 1e-15; 1e-16; 1e-17; Float.succ 0.0 ];
  if !taken_dels = 0 || !taken_swaps = 0 then
    Alcotest.failf "%d deletions and %d swaps taken: the case lost its teeth" !taken_dels
      !taken_swaps;
  both_paths_ran cleared0 scanned0

(* Minor words [f] allocates on this domain. *)
let words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* A boolean check that agent 0 refutes must not build the profile,
   whose rows alone take more than n² words: it allocates what agent 0's
   own scan does, under [Seq] and [Par 2] alike, up to the few words of
   its own closures. *)
let test_boolean_early_exit () =
  let r = Prng.create 3760 in
  let par = Gncg_util.Exec.par ~domains:2 () in
  let refuted = ref 0 in
  List.iter
    (fun (name, make) ->
      let n = 10 + Prng.int r 11 in
      let host = make n in
      List.iter
        (fun (label, s) ->
          List.iter
            (fun (kind, kinds) ->
              let scan0 () = Greedy.scan ~kinds host s ~agent:0 in
              if snd (scan0 ()) <> None then begin
                incr refuted;
                let one_scan = words (fun () -> Greedy.best_cost host s ~agent:0 (scan0 ())) in
                List.iter
                  (fun exec ->
                    let holds = ref true in
                    let check = words (fun () -> holds := Eq.is_equilibrium ~exec kind host s) in
                    if !holds then Alcotest.failf "%s, %s: agent 0 can improve" name label;
                    if check -. one_scan > float_of_int (n * n / 2) then
                      Alcotest.failf "%s, %s: %.0f words against %.0f for agent 0's scan" name
                        label check one_scan)
                  [ Gncg_util.Exec.seq; par ]
              end)
            [ (Eq.GE, ge); (Eq.AE, ae) ])
        (profiles_of host r))
    (Helpers.adversarial_hosts r ~alpha:2.0);
  if !refuted = 0 then Alcotest.fail "no check refuted at agent 0"

let suites =
  [
    ( "greedy-scan",
      [
        qtest ~count:150 "best move = spec (bits)" seed_gen prop_best_move_exact;
        qtest ~count:100 "certify GE/AE = spec (bits)" seed_gen prop_certify_exact;
        qtest ~count:150 "gains = move_gain (bits)" seed_gen prop_gains_exact;
        qtest ~count:150 "swap games: best move = spec (bits)" seed_gen
          prop_swap_best_move_exact;
        qtest ~count:100 "swap games: gains = move_gain (bits)" seed_gen prop_swap_gains_exact;
        Alcotest.test_case "swap games favour swaps" `Quick test_swap_game_bias;
        Alcotest.test_case "resumed sums and sorted edge prices = move_gain (bits)" `Quick
          test_fixed_games;
        Alcotest.test_case "converged games: moves, gains, grievances = spec (bits)" `Quick
          test_converged_exact;
      ] );
    ( "bound-first-scan",
      [
        Alcotest.test_case "adversarial hosts: scan with rows = without (bits), Seq = Par 2"
          `Quick test_profile_scan_exact;
        Alcotest.test_case "own path at 2^20..1e10: no rounding-only move cleared" `Quick
          test_own_path_rounding;
        Alcotest.test_case "a check refuted at agent 0 builds no profile" `Quick
          test_boolean_early_exit;
      ] );
  ]
