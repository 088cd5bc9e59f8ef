module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Euclidean = Gncg_metric.Euclidean
module Strategy = Gncg.Strategy
module Dynamics = Gncg.Dynamics

let fig8_points =
  Euclidean.of_list
    [
      [ 3.0; 0.0 ];
      [ 0.0; 3.0 ];
      [ 2.0; 2.0 ];
      [ 0.0; 2.0 ];
      [ 1.0; 1.0 ];
      [ 4.0; 3.0 ];
      [ 2.0; 0.0 ];
      [ 4.0; 1.0 ];
      [ 1.0; 4.0 ];
      [ 1.0; 0.0 ];
    ]

let fig8_host ~alpha = Gncg.Host.make ~alpha (Euclidean.metric L1 fig8_points)

let random_profile rng host =
  let n = Gncg.Host.n host in
  (* Random spanning forest of the *finite-weight* host pairs (randomized
     Kruskal), each edge owned by a random endpoint, then a few extra
     purchases.  Hosts with forbidden (infinite) edges — the 1-inf
     variant — only ever see allowed purchases. *)
  let pairs = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Float.is_finite (Gncg.Host.weight host u v) then pairs := (u, v) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  Prng.shuffle rng pairs;
  let uf = Gncg_graph.Union_find.create n in
  let s = ref (Strategy.empty n) in
  Array.iter
    (fun (u, v) ->
      if Gncg_graph.Union_find.union uf u v then begin
        let owner, target = if Prng.bool rng then (u, v) else (v, u) in
        s := Strategy.buy !s owner target
      end)
    pairs;
  let extras = Prng.int rng (max 1 n) in
  for _ = 1 to extras do
    if Array.length pairs > 0 then begin
      let u, v = pairs.(Prng.int rng (Array.length pairs)) in
      if not (Strategy.edge_in_network !s u v) then
        if Prng.bool rng then s := Strategy.buy !s u v else s := Strategy.buy !s v u
    end
  done;
  !s

let profiles_of_lists n states =
  List.map (fun assoc -> Strategy.of_lists n assoc) states

let fig5_like_instance () =
  let tree =
    Gncg_metric.Tree_metric.make 10
      [
        (0, 1, 5.0); (1, 2, 12.0); (1, 3, 3.0); (1, 4, 2.0); (4, 5, 9.0);
        (5, 6, 11.0); (5, 7, 10.0); (7, 8, 7.0); (1, 9, 2.0);
      ]
  in
  let host = Gncg.Host.make ~alpha:2.0 (Gncg_metric.Tree_metric.metric tree) in
  (* Four improving moves by agents 5 and 6: delete (5,6); swap (6,7)->(6,3);
     re-add (5,6); swap back (6,3)->(6,7). *)
  let base = [ (1, [ 0 ]); (2, [ 1 ]); (3, [ 1 ]); (4, [ 1 ]); (7, [ 8 ]); (9, [ 1 ]) ] in
  let states =
    [
      (5, [ 4; 6; 7 ]) :: (6, [ 7 ]) :: base;
      (5, [ 4; 7 ]) :: (6, [ 7 ]) :: base;
      (5, [ 4; 7 ]) :: (6, [ 3 ]) :: base;
      (5, [ 4; 6; 7 ]) :: (6, [ 3 ]) :: base;
      (5, [ 4; 6; 7 ]) :: (6, [ 7 ]) :: base;
    ]
  in
  (host, profiles_of_lists 10 states)

let fig8_cycle () =
  let host = fig8_host ~alpha:1.0 in
  let base u2 u4 u7 u8 =
    [
      (1, [ 3; 8 ]); (2, u2); (3, [ 2 ]); (4, u4); (5, [ 7 ]); (6, [ 0; 9 ]);
      (7, u7); (8, u8);
    ]
  in
  let states =
    [
      base [ 5; 6 ] [ 2; 3; 9 ] [ 0 ] [ 4; 5 ];
      base [ 5; 6 ] [ 2; 3; 9 ] [ 0; 2 ] [ 4; 5 ];
      base [ 5; 6 ] [ 2; 3; 9 ] [ 0; 2 ] [ 2; 4 ];
      base [ 6 ] [ 2; 3; 9 ] [ 0; 2 ] [ 2; 4 ];
      base [ 6 ] [ 2; 3; 9 ] [ 0; 2 ] [ 4; 5 ];
      base [ 6 ] [ 2; 3; 7; 9 ] [ 0; 2 ] [ 4; 5 ];
      base [ 6 ] [ 2; 3; 7; 9 ] [ 0 ] [ 4; 5 ];
      base [ 5; 6 ] [ 2; 3; 7; 9 ] [ 0 ] [ 4; 5 ];
      base [ 5; 6 ] [ 2; 3; 9 ] [ 0 ] [ 4; 5 ];
    ]
  in
  (host, profiles_of_lists 10 states)

type found = {
  host : Gncg.Host.t;
  start : Strategy.t;
  cycle : Strategy.t list;
  rule : Dynamics.rule;
}

let try_once ?(max_steps = 400) rule rng host =
  let start = random_profile rng host in
  let scheduler = Dynamics.Random_order (Prng.split rng) in
  match Dynamics.run (Dynamics.Config.make ~max_steps rule scheduler) host start with
  | Dynamics.Cycle { profiles; _ } -> Some { host; start; cycle = profiles; rule }
  | Dynamics.Converged _ | Dynamics.Out_of_steps _ -> None

let default_rules =
  [
    Dynamics.Greedy_response;
    Dynamics.Random_improving (Prng.create 0xC1C1E);
    Dynamics.Best_response;
  ]

let search_host ?(rules = default_rules) ?(tries = 50) ?max_steps rng host =
  let rec go t =
    if t >= tries then None
    else begin
      let rec over_rules = function
        | [] -> None
        | rule :: rest -> (
          match try_once ?max_steps rule rng host with
          | Some f -> Some f
          | None -> over_rules rest)
      in
      match over_rules rules with Some f -> Some f | None -> go (t + 1)
    end
  in
  go 0

let search_generated ?(rules = default_rules) ?(tries = 50) ?max_steps ~host_gen rng =
  let rec go t =
    if t >= tries then None
    else begin
      let host = host_gen rng in
      match search_host ~rules ~tries:1 ?max_steps rng host with
      | Some f -> Some f
      | None -> go (t + 1)
    end
  in
  go 0

let differs_in_one_agent a b =
  let n = Strategy.n a in
  let changed = ref [] in
  for u = 0 to n - 1 do
    if not (Strategy.ISet.equal (Strategy.strategy a u) (Strategy.strategy b u)) then
      changed := u :: !changed
  done;
  match !changed with [ u ] -> Some u | _ -> None

let verify_cycle host profiles =
  match profiles with
  | [] | [ _ ] -> false
  | first :: _ ->
    let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> assert false in
    Strategy.equal first (last profiles)
    && begin
         let rec check = function
           | a :: (b :: _ as rest) ->
             (match differs_in_one_agent a b with
             | None -> false
             | Some mover ->
               Flt.lt (Gncg.Cost.agent_cost host b mover) (Gncg.Cost.agent_cost host a mover)
               && check rest)
           | _ -> true
         in
         check profiles
       end
