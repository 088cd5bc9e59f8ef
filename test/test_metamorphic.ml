(* Metamorphic relations of the equilibrium checks, and a classical
   cross-check from outside the paper.

   Relabelling the agents by a permutation pi moves every grievance to
   pi of its agent; doubling every host weight (exact in binary floating
   point) doubles every agent cost bit for bit and moves no grievance.
   Both hold on a random profile and on the profile greedy dynamics
   reach from it, on every model family the CLI offers.

   Alvarez and Messegue (arXiv:1706.09132): on unit weights with
   alpha < 1 the complete graph is the unique Nash equilibrium. *)

open Helpers
module Prng = Gncg_util.Prng
module Eq = Gncg.Equilibrium
module Strategy = Gncg.Strategy
module Host = Gncg.Host
module Metric = Gncg_metric.Metric
module I = Gncg_workload.Instances
module Dyn = Gncg.Dynamics

let qtest ~count name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name QCheck.small_nat prop)

let greedy_fixpoint host start =
  let config = Dyn.Config.make ~max_steps:5000 Dyn.Greedy_response Dyn.Round_robin in
  match Dyn.run config host start with
  | Dyn.Converged { profile; _ } -> Some profile
  | Dyn.Cycle _ | Dyn.Out_of_steps _ -> None

(* Agent pi.(u) of the image plays u's part: host weights and purchases
   move with their agents. *)
let relabel pi host s =
  let n = Host.n host in
  let inv = Array.make n 0 in
  Array.iteri (fun u pu -> inv.(pu) <- u) pi;
  let m = Host.metric host in
  let host' =
    Host.make ~alpha:(Host.alpha host) (Metric.make n (fun a b -> Metric.weight m inv.(a) inv.(b)))
  in
  let s' =
    Strategy.of_lists n
      (List.init n (fun u ->
           (pi.(u), List.map (fun v -> pi.(v)) (Strategy.ISet.elements (Strategy.strategy s u)))))
  in
  (host', s')

let image pi agents = List.sort compare (List.map (fun u -> pi.(u)) agents)

let certified kind host s =
  match Eq.certify kind host s with
  | Ok () -> []
  | Error gs -> List.sort compare (List.map (fun g -> g.Eq.agent) gs)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let relations_hold r host s =
  let n = Host.n host in
  let pi = Prng.permutation r n in
  let host_pi, s_pi = relabel pi host s in
  let host_2 = Host.make ~alpha:(Host.alpha host) (Metric.scale 2.0 (Host.metric host)) in
  List.for_all
    (fun kind ->
      let unhappy = Eq.unhappy_agents kind host s in
      Eq.unhappy_agents kind host_pi s_pi = image pi unhappy
      && Eq.unhappy_agents kind host_2 s = unhappy)
    [ Eq.AE; Eq.GE ]
  && certified Eq.GE host_pi s_pi = image pi (certified Eq.GE host s)
  && List.for_all
       (fun u ->
         same_bits (Gncg.Cost.agent_cost host_2 s u) (2.0 *. Gncg.Cost.agent_cost host s u))
       (List.init n Fun.id)

let prop_relabel_and_scale seed =
  let r = Prng.create (seed + 3100) in
  List.for_all
    (fun (_, model) ->
      let n = 4 + Prng.int r 9 in
      let alpha = 0.5 +. Prng.float r 4.0 in
      let host = I.random_host r model ~n ~alpha in
      let start = I.random_profile r host in
      relations_hold r host start
      && match greedy_fixpoint host start with Some s -> relations_hold r host s | None -> true)
    cli_models

(* --- unit weights, alpha = 1/2 ------------------------------------------- *)

let unit_host n = Host.make ~alpha:0.5 (Metric.make n (fun _ _ -> 1.0))

let is_complete host s =
  let n = Host.n host in
  Gncg_graph.Wgraph.m (Gncg.Network.graph host s) = n * (n - 1) / 2

let test_complete_graph_is_ne () =
  for n = 3 to 8 do
    let complete =
      Strategy.of_lists n (List.init n (fun u -> (u, List.init (n - 1 - u) (fun k -> u + 1 + k))))
    in
    check_true (Printf.sprintf "complete graph is an NE at n = %d" n)
      (Eq.is_ne (unit_host n) complete)
  done

let prop_alpha_below_one seed =
  let r = Prng.create (seed + 3200) in
  let n = 3 + Prng.int r 6 in
  let host = unit_host n in
  let start = I.random_profile r host in
  (is_complete host start || Eq.unhappy_agents Eq.GE host start <> [])
  && match greedy_fixpoint host start with Some s -> is_complete host s | None -> false

let suites =
  [
    ( "metamorphic",
      [ qtest ~count:20 "relabel and scale move grievances" prop_relabel_and_scale ] );
    ( "classical",
      [
        case "unit weights, alpha<1: complete graph is NE" test_complete_graph_is_ne;
        qtest ~count:40 "unit weights, alpha<1: only K_n is stable" prop_alpha_below_one;
      ] );
  ]
