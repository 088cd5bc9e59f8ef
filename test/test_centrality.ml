open Helpers
module Wgraph = Gncg_graph.Wgraph
module Bc = Gncg_graph.Betweenness
module Dm = Gncg_graph.Incr_apsp
module Prng = Gncg_util.Prng

(* --- betweenness ---------------------------------------------------------- *)

let test_path_vertex_betweenness () =
  (* Path 0-1-2: only vertex 1 lies between pairs; ordered pairs (0,2) and
     (2,0) both route through it. *)
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let bc = Bc.vertex g in
  check_float "endpoint" 0.0 bc.(0);
  check_float "middle" 2.0 bc.(1);
  check_float "endpoint" 0.0 bc.(2)

let test_star_betweenness () =
  (* Star with center 0 and 4 leaves: center carries all 4*3 ordered leaf
     pairs. *)
  let g = Wgraph.of_edges 5 (List.init 4 (fun i -> (0, i + 1, 2.0))) in
  let bc = Bc.vertex g in
  check_float "center" 12.0 bc.(0);
  for v = 1 to 4 do
    check_float "leaf" 0.0 bc.(v)
  done

let test_split_paths_betweenness () =
  (* Square 0-1-2-3-0 with unit weights: two shortest paths between
     opposite corners, each midpoint carries half per ordered pair. *)
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 1.0) ] in
  let bc = Bc.vertex g in
  Array.iter (fun b -> check_float ~tol:1e-9 "symmetric square" 1.0 b) bc

let test_edge_betweenness_bridge () =
  (* Two triangles joined by a bridge: the bridge carries all 9 ordered
     cross pairs... per direction, so 18 total. *)
  let g =
    Wgraph.of_edges 6
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0); (2, 3, 1.0); (3, 4, 1.0); (4, 5, 1.0); (5, 3, 1.0) ]
  in
  let eb = Bc.edge g in
  let bridge = List.assoc (2, 3) eb in
  check_float ~tol:1e-9 "bridge betweenness" 18.0 bridge

let test_distance_cost_identity () =
  let r = rng 1200 in
  for _ = 1 to 8 do
    let g = random_graph r 12 14 in
    let direct =
      let apsp = Gncg_graph.Dijkstra.apsp g in
      Array.fold_left (fun acc row -> acc +. Gncg_util.Flt.sum row) 0.0 apsp
    in
    check_float ~tol:1e-6 "betweenness identity (Lemma 8 accounting)" direct
      (Bc.distance_cost_via_betweenness g)
  done

let test_distance_cost_disconnected () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0) ] in
  check_true "disconnected is infinite"
    (Bc.distance_cost_via_betweenness g = Float.infinity)

(* --- dynamic distance matrix ---------------------------------------------- *)

(* The matrix after inserting (u,v,w), leaving [m] as it was. *)
let with_edge_added m u v w =
  let m' = Dm.of_graph (Dm.graph m) in
  ignore (Dm.add_edge m' u v w);
  m'

let test_dist_matrix_basics () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  let m = Dm.of_graph g in
  Alcotest.(check int) "size" 3 (Dm.n m);
  check_float "distance" 3.0 (Dm.distance m 0 2);
  check_float "total" (2.0 *. (1.0 +. 2.0 +. 3.0)) (Dm.total m)

let test_dist_matrix_insertion_exact () =
  let r = rng 1201 in
  for _ = 1 to 10 do
    let g = random_graph r 12 8 in
    let m = Dm.of_graph g in
    (* Insert a random absent pair and compare with recomputation. *)
    let u = Prng.int r 12 and v = Prng.int r 12 in
    if u <> v && not (Wgraph.has_edge g u v) then begin
      let w = Prng.float_in r 0.1 3.0 in
      let updated = with_edge_added m u v w in
      Wgraph.add_edge g u v w;
      let reference = Dm.of_graph g in
      for x = 0 to 11 do
        for y = 0 to 11 do
          if not (approx ~tol:1e-9 (Dm.distance updated x y) (Dm.distance reference x y))
          then
            Alcotest.failf "d(%d,%d): incremental %g vs recomputed %g" x y
              (Dm.distance updated x y) (Dm.distance reference x y)
        done
      done;
      check_float ~tol:1e-6 "total shortcut agrees" (Dm.total reference)
        (Dm.total_with_edge_added m u v w)
    end
  done

let test_dist_matrix_insertion_connects () =
  (* Inserting across components makes the total finite. *)
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let m = Dm.of_graph g in
  check_true "initially infinite" (Dm.total m = Float.infinity);
  let m' = with_edge_added m 1 2 5.0 in
  check_true "finite after bridging" (Float.is_finite (Dm.total m'));
  check_float "new route" 7.0 (Dm.distance m' 0 3)

let test_dist_matrix_noop_insertion () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let m = Dm.of_graph g in
  (* A heavy parallel route cannot improve anything. *)
  let m' = with_edge_added m 0 2 10.0 in
  check_float "unchanged" (Dm.total m) (Dm.total m');
  check_float "unchanged total shortcut" (Dm.total m) (Dm.total_with_edge_added m 0 2 10.0)

let suites =
  [
    ( "graph.betweenness",
      [
        case "path" test_path_vertex_betweenness;
        case "star" test_star_betweenness;
        case "tie splitting (square)" test_split_paths_betweenness;
        case "edge betweenness of a bridge" test_edge_betweenness_bridge;
        case "distance-cost identity" test_distance_cost_identity;
        case "disconnected" test_distance_cost_disconnected;
      ] );
    ( "graph.dist-matrix",
      [
        case "basics" test_dist_matrix_basics;
        case "insertion matches recompute" test_dist_matrix_insertion_exact;
        case "insertion can connect" test_dist_matrix_insertion_connects;
        case "useless insertion is no-op" test_dist_matrix_noop_insertion;
      ] );
  ]
