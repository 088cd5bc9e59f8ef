(* The single-move scan against its specification, bit for bit.
   [Greedy.scan], [gains], [best_move], [best_single_move_cost] and the
   greedy [Equilibrium.certify] verdicts assemble every moved row from a
   pass on the network, one what-if per sold edge and one bounded pass
   per addable target, on a flat adjacency that certify builds once per
   profile; [Greedy.move_gain] rebuilds the moved network.  Every gain,
   cost and grievance must agree exactly, compared by
   [Int64.bits_of_float], never within a tolerance. *)

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
  | Some (_, gain) -> current -. gain

let same_pick a b =
  match (a, b) with
  | None, None -> true
  | Some (mv, g), Some (mv', g') -> mv = mv' && same g g'
  | _ -> false

let best_move_exact ?gain (host, s) =
  List.for_all
    (fun kinds ->
      List.for_all
        (fun agent ->
          let current, best = Greedy.scan ~kinds host s ~agent in
          same_pick best (spec_best ?gain ~kinds host s ~agent)
          && same_pick (Greedy.best_move ~kinds host s ~agent) best
          && same current (Gncg.Cost.agent_cost host s agent)
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
   bounded branch went untested. *)
let test_converged_exact () =
  Gncg_obs.Obs.set_profiling true;
  Fun.protect ~finally:(fun () -> Gncg_obs.Obs.set_profiling false) @@ fun () ->
  let settled0 = counter "greedy.settled" in
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
    Alcotest.failf "%d vertices settled; passes x n = %d" settled !cells

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
        Alcotest.test_case "converged games: moves, gains, grievances = spec (bits)" `Quick
          test_converged_exact;
      ] );
  ]
