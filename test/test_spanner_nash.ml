open Helpers
module Prng = Gncg_util.Prng
module Sn = Gncg.Spanner_nash
module Host = Gncg.Host
module One_two = Gncg_metric.One_two

let random_host r ~n ~alpha = Host.make ~alpha (One_two.random r ~n ~p_one:0.5)

let test_spanner_check () =
  let m = One_two.of_one_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let host = Host.make ~alpha:0.8 m in
  let path = One_two.one_subgraph m in
  (* d(0,3) = 3 <= 3 fine, but the 2-edge pairs (0,2) and (1,3) are at
     distance 2 <= 3 — the path of 1-edges is already a 3/2-spanner. *)
  check_true "path is 3/2-spanner" (Sn.is_three_half_spanner host path);
  Gncg_graph.Wgraph.remove_edge path 1 2;
  check_false "broken path is not" (Sn.is_three_half_spanner host path)

let test_exact_spanner_properties () =
  let r = rng 600 in
  for _ = 1 to 8 do
    let n = 5 in
    let host = random_host r ~n ~alpha:0.8 in
    let g = Sn.min_weight_spanner_exact host in
    check_true "is 3/2-spanner" (Sn.is_three_half_spanner host g);
    (* Lemma 5: contains every 1-edge and has diameter <= 3. *)
    Gncg_graph.Wgraph.iter_edges
      (One_two.one_subgraph (Host.metric host))
      (fun u v _ -> check_true "1-edge present" (Gncg_graph.Wgraph.has_edge g u v));
    check_true "diameter <= 3" (Gncg_graph.Dijkstra.diameter g <= 3.0 +. 1e-9)
  done

let test_thm5_nash_ownership_exists () =
  (* Thm 5: for 1/2 <= alpha <= 1 a min-weight 3/2-spanner admits a NE
     ownership. *)
  let r = rng 602 in
  for trial = 1 to 6 do
    let n = 5 in
    let alpha = 0.5 +. Prng.float r 0.5 in
    let host = random_host r ~n ~alpha in
    let g = Sn.min_weight_spanner_exact host in
    if Gncg_graph.Wgraph.m g <= 12 then
      match Sn.nash_ownership host g with
      | Some s ->
        check_true "found ownership is NE" (Gncg.Equilibrium.is_ne host s);
        check_true "network preserved"
          (Gncg_graph.Wgraph.equal (Gncg.Network.graph host s) g)
      | None -> Alcotest.failf "trial %d (alpha=%g): no NE ownership found" trial alpha
  done

let test_onetwo_guard () =
  let host = Host.make ~alpha:0.8 (Gncg_metric.Metric.make 4 (fun _ _ -> 3.0)) in
  Alcotest.check_raises "non 1-2 rejected"
    (Invalid_argument "Spanner_nash: host is not a 1-2 graph") (fun () ->
      ignore (Sn.min_weight_spanner_exact host))

let test_ownership_orientations_count () =
  let g = Gncg_graph.Wgraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let all = List.of_seq (Gncg.Ownership.orientations g) in
  Alcotest.(check int) "2^m orientations" 4 (List.length all);
  let keys = List.sort_uniq compare (List.map Gncg.Strategy.canonical_key all) in
  Alcotest.(check int) "all distinct" 4 (List.length keys)

let suites =
  [
    ( "spanner-nash",
      [
        case "3/2-spanner check" test_spanner_check;
        case "exact min-weight spanner (Lemma 5)" test_exact_spanner_properties;
        slow_case "Thm 5: NE ownership exists" test_thm5_nash_ownership_exists;
        case "1-2 guard" test_onetwo_guard;
        case "ownership enumeration" test_ownership_orientations_count;
      ] );
  ]
