(* Residual coverage: small behaviours of the public API not pinned
   elsewhere. *)

open Helpers
module Wgraph = Gncg_graph.Wgraph

let test_tablefmt_alignment () =
  let s =
    Gncg_util.Tablefmt.render
      ~align:[ Gncg_util.Tablefmt.Left; Gncg_util.Tablefmt.Right ]
      ~header:[ "name"; "v" ]
      [ [ "a"; "10" ]; [ "bb"; "5" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (* Left column pads on the right, right column pads on the left. *)
  check_true "left aligned" (List.exists (fun l -> String.length l >= 2 && l.[0] = 'a' && l.[1] = ' ') lines);
  check_true "right aligned" (List.exists (fun l ->
      String.length l > 0 && l.[String.length l - 1] = '5') lines)

let test_move_pp () =
  Alcotest.(check string) "add" "add->3" (Format.asprintf "%a" Gncg.Move.pp (Gncg.Move.Add 3));
  Alcotest.(check string) "del" "del->1" (Format.asprintf "%a" Gncg.Move.pp (Gncg.Move.Delete 1));
  Alcotest.(check string) "swap" "swap 1=>2"
    (Format.asprintf "%a" Gncg.Move.pp (Gncg.Move.Swap (1, 2)))

let test_metric_pp_and_strategy_pp () =
  let m = Gncg_metric.Metric.make 2 (fun _ _ -> 1.0) in
  check_true "metric pp renders" (String.length (Format.asprintf "%a" Gncg_metric.Metric.pp m) > 0);
  let s = Gncg.Strategy.of_lists 2 [ (0, [ 1 ]) ] in
  let rendered = Format.asprintf "%a" Gncg.Strategy.pp s in
  check_true "strategy pp mentions purchase"
    (String.length rendered > 0
    && String.split_on_char '\n' rendered
       |> List.exists (fun l -> String.trim l = "0 buys {1}"))

let test_wgraph_pp () =
  let g = Wgraph.of_edges 2 [ (0, 1, 1.5) ] in
  check_true "graph pp renders" (String.length (Format.asprintf "%a" Wgraph.pp g) > 0)

let test_dot_to_file () =
  let g = Wgraph.of_edges 2 [ (0, 1, 1.0) ] in
  let path = Filename.temp_file "gncg" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gncg_graph.Dot.to_file path g;
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      check_true "file written" (len > 10))

let test_spanner_of_one_point () =
  let g = Gncg_graph.Spanner.greedy 1 (fun _ _ -> 1.0) 2.0 in
  Alcotest.(check int) "no edges" 0 (Wgraph.m g);
  check_float "stretch of trivial host" 1.0 (Gncg_graph.Spanner.stretch ~host:(fun _ _ -> 1.0) g)

let test_single_agent_game () =
  (* Degenerate but legal: one agent, nothing to buy, zero cost. *)
  let host = Gncg.Host.make ~alpha:1.0 (Gncg_metric.Metric.make 1 (fun _ _ -> 1.0)) in
  let s = Gncg.Strategy.empty 1 in
  check_float "zero cost" 0.0 (Gncg.Cost.social_cost host s);
  check_true "trivially NE" (Gncg.Equilibrium.is_ne host s)

let test_two_agent_equilibria () =
  (* n = 2 with weight w: the single-edge network is always the optimum
     and, bought by either side, a NE (deleting disconnects; nothing else
     to do). *)
  let host = Gncg.Host.make ~alpha:3.0 (Gncg_metric.Metric.make 2 (fun _ _ -> 5.0)) in
  let s = Gncg.Strategy.of_lists 2 [ (0, [ 1 ]) ] in
  check_true "edge profile is NE" (Gncg.Equilibrium.is_ne host s);
  let _, opt = Gncg.Social_optimum.exact_small host in
  check_float "optimal" opt (Gncg.Cost.social_cost host s)

let suites =
  [
    ( "coverage",
      [
        case "table alignment" test_tablefmt_alignment;
        case "move printer" test_move_pp;
        case "metric & strategy printers" test_metric_pp_and_strategy_pp;
        case "graph printer" test_wgraph_pp;
        case "dot to file" test_dot_to_file;
        case "trivial spanner" test_spanner_of_one_point;
        case "single-agent game" test_single_agent_game;
        case "two-agent equilibrium" test_two_agent_equilibria;
      ] );
  ]
