open Helpers
module Wgraph = Gncg_graph.Wgraph
module Dijkstra = Gncg_graph.Dijkstra
module Fw = Gncg_graph.Floyd_warshall
module Heap = Gncg_graph.Binary_heap

(* --- Wgraph ------------------------------------------------------------ *)

let test_wgraph_basic () =
  let g = Wgraph.create 4 in
  Alcotest.(check int) "n" 4 (Wgraph.n g);
  Alcotest.(check int) "m empty" 0 (Wgraph.m g);
  Wgraph.add_edge g 0 1 2.5;
  Wgraph.add_edge g 1 2 1.0;
  Alcotest.(check int) "m" 2 (Wgraph.m g);
  check_true "has 0-1" (Wgraph.has_edge g 0 1);
  check_true "symmetric" (Wgraph.has_edge g 1 0);
  Alcotest.(check (option (float 1e-9))) "weight" (Some 2.5) (Wgraph.weight g 0 1);
  Alcotest.(check int) "degree" 2 (Wgraph.degree g 1);
  check_float "total weight" 3.5 (Wgraph.total_weight g)

let test_wgraph_overwrite () =
  let g = Wgraph.create 3 in
  Wgraph.add_edge g 0 1 2.0;
  Wgraph.add_edge g 0 1 5.0;
  Alcotest.(check int) "still one edge" 1 (Wgraph.m g);
  Alcotest.(check (option (float 1e-9))) "new weight" (Some 5.0) (Wgraph.weight g 1 0)

let test_wgraph_remove () =
  let g = Wgraph.create 3 in
  Wgraph.add_edge g 0 1 2.0;
  Wgraph.remove_edge g 1 0;
  Alcotest.(check int) "removed" 0 (Wgraph.m g);
  Wgraph.remove_edge g 1 0 (* no-op ok *)

let test_wgraph_invalid () =
  let g = Wgraph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Wgraph.add_edge: self-loop")
    (fun () -> Wgraph.add_edge g 1 1 1.0);
  Alcotest.check_raises "negative" (Invalid_argument "Wgraph.add_edge: negative weight")
    (fun () -> Wgraph.add_edge g 0 1 (-1.0))

let test_wgraph_copy_independent () =
  let g = Wgraph.create 3 in
  Wgraph.add_edge g 0 1 1.0;
  let h = Wgraph.copy g in
  Wgraph.add_edge h 1 2 1.0;
  Alcotest.(check int) "copy grew" 2 (Wgraph.m h);
  Alcotest.(check int) "original intact" 1 (Wgraph.m g);
  check_true "equal to itself" (Wgraph.equal g g);
  check_false "not equal after edit" (Wgraph.equal g h)

let test_wgraph_edges_once () =
  let r = rng 2 in
  let g = random_graph r 12 10 in
  let es = Wgraph.edges g in
  Alcotest.(check int) "edges count" (Wgraph.m g) (List.length es);
  List.iter (fun (u, v, _) -> check_true "ordered" (u < v)) es

(* --- Binary heap -------------------------------------------------------- *)

let test_heap_sorts () =
  let r = rng 4 in
  let n = 200 in
  let h = Heap.create n in
  let keys = Array.init n (fun _ -> Gncg_util.Prng.float r 100.0) in
  Array.iteri (fun i k -> Heap.insert h i k) keys;
  let prev = ref Float.neg_infinity in
  for _ = 1 to n do
    match Heap.pop_min h with
    | None -> Alcotest.fail "premature empty"
    | Some (_, p) ->
      check_true "non-decreasing" (p >= !prev);
      prev := p
  done;
  check_true "empty at end" (Heap.pop_min h = None)

let test_heap_decrease () =
  let h = Heap.create 5 in
  Heap.insert h 0 10.0;
  Heap.insert h 1 20.0;
  Heap.decrease h 1 5.0;
  (match Heap.pop_min h with
  | Some (id, p) ->
    Alcotest.(check int) "decreased wins" 1 id;
    check_float "priority" 5.0 p
  | None -> Alcotest.fail "empty");
  Alcotest.check_raises "decrease absent"
    (Invalid_argument "Binary_heap.decrease: absent id") (fun () -> Heap.decrease h 3 1.0)

let test_heap_insert_or_decrease () =
  let h = Heap.create 3 in
  Heap.insert_or_decrease h 0 10.0;
  Heap.insert_or_decrease h 0 3.0;
  Heap.insert_or_decrease h 0 50.0 (* ignored: larger *);
  Alcotest.(check (option (pair int (float 0.0)))) "kept min" (Some (0, 3.0)) (Heap.pop_min h)

let test_heap_duplicate_insert () =
  let h = Heap.create 3 in
  Heap.insert h 0 1.0;
  Alcotest.check_raises "duplicate" (Invalid_argument "Binary_heap.insert: duplicate id")
    (fun () -> Heap.insert h 0 2.0)

(* --- Shortest paths ----------------------------------------------------- *)

let test_dijkstra_line () =
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0) ] in
  let d = Dijkstra.sssp g 0 in
  Alcotest.(check (array (float 1e-9))) "line distances" [| 0.0; 1.0; 3.0; 6.0 |] d

let test_dijkstra_disconnected () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.0) ] in
  let d = Dijkstra.sssp g 0 in
  check_true "unreachable is inf" (d.(2) = Float.infinity);
  check_true "diameter inf" (Dijkstra.diameter g = Float.infinity)

let test_dijkstra_vs_floyd () =
  let r = rng 8 in
  for trial = 0 to 9 do
    let g = random_graph r 20 30 in
    let dm = Fw.closure_of_graph g in
    let apsp = Dijkstra.apsp g in
    for u = 0 to 19 do
      for v = 0 to 19 do
        if not (approx ~tol:1e-6 dm.(u).(v) apsp.(u).(v)) then
          Alcotest.failf "trial %d: d(%d,%d) fw=%g dijkstra=%g" trial u v dm.(u).(v)
            apsp.(u).(v)
      done
    done
  done

let test_dijkstra_bounded () =
  let g = Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 5.0); (2, 3, 1.0) ] in
  let d = Dijkstra.sssp_bounded g 0 2.0 in
  check_float "near vertex kept" 1.0 d.(1);
  check_true "far vertex dropped" (d.(2) = Float.infinity && d.(3) = Float.infinity)

let test_zero_weight_edges () =
  let g = Wgraph.of_edges 3 [ (0, 1, 0.0); (1, 2, 1.0) ] in
  let d = Dijkstra.sssp g 0 in
  check_float "zero edge" 0.0 d.(1);
  check_float "through zero" 1.0 d.(2)

(* --- BFS / Union-find / MST / Connectivity ------------------------------ *)

let test_bfs_hops () =
  let g = Wgraph.of_edges 5 [ (0, 1, 9.0); (1, 2, 9.0); (0, 3, 9.0) ] in
  let h = Gncg_graph.Bfs.hops g 0 in
  Alcotest.(check (array int)) "hops ignore weights" [| 0; 1; 2; 1; -1 |] h

let test_union_find () =
  let uf = Gncg_graph.Union_find.create 5 in
  Alcotest.(check int) "initial classes" 5 (Gncg_graph.Union_find.count uf);
  check_true "union 0 1" (Gncg_graph.Union_find.union uf 0 1);
  check_true "union 1 2" (Gncg_graph.Union_find.union uf 1 2);
  check_false "redundant union" (Gncg_graph.Union_find.union uf 0 2);
  check_true "same class" (Gncg_graph.Union_find.same uf 0 2);
  check_false "different class" (Gncg_graph.Union_find.same uf 0 4);
  Alcotest.(check int) "classes" 3 (Gncg_graph.Union_find.count uf)

let test_mst_agree () =
  let r = rng 14 in
  for _ = 1 to 5 do
    let n = 12 in
    let pts = Array.init n (fun _ -> (Gncg_util.Prng.float r 10.0, Gncg_util.Prng.float r 10.0)) in
    let w u v =
      let xu, yu = pts.(u) and xv, yv = pts.(v) in
      Float.hypot (xu -. xv) (yu -. yv)
    in
    let complete_edges =
      List.concat_map
        (fun u -> List.filter_map (fun v -> if u < v then Some (u, v, w u v) else None)
                    (List.init n Fun.id))
        (List.init n Fun.id)
    in
    let k = Gncg_graph.Mst.kruskal n complete_edges in
    let p = Gncg_graph.Mst.prim_complete n w in
    let total es = List.fold_left (fun acc (_, _, x) -> acc +. x) 0.0 es in
    Alcotest.(check int) "kruskal tree size" (n - 1) (List.length k);
    Alcotest.(check int) "prim tree size" (n - 1) (List.length p);
    check_float ~tol:1e-9 "same weight" (total k) (total p);
    check_true "kruskal is spanning tree"
      (Gncg_graph.Connectivity.is_tree (Wgraph.of_edges n k))
  done

let test_components () =
  let g = Wgraph.of_edges 5 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.(check int) "three components" 3 (Gncg_graph.Connectivity.component_count g);
  check_false "not connected" (Gncg_graph.Connectivity.is_connected g);
  check_false "not a tree" (Gncg_graph.Connectivity.is_tree g)

(* --- Spanner ------------------------------------------------------------ *)

let test_greedy_spanner_property () =
  let r = rng 21 in
  for _ = 1 to 5 do
    let n = 15 in
    let pts = Array.init n (fun _ -> (Gncg_util.Prng.float r 10.0, Gncg_util.Prng.float r 10.0)) in
    let w u v =
      let xu, yu = pts.(u) and xv, yv = pts.(v) in
      Float.hypot (xu -. xv) (yu -. yv)
    in
    let t = 2.0 in
    let sp = Gncg_graph.Spanner.greedy n w t in
    check_true "is t-spanner" (Gncg_graph.Spanner.is_spanner ~host:w t sp);
    let complete = (n * (n - 1)) / 2 in
    check_true "sparser than complete" (Wgraph.m sp < complete)
  done

let test_stretch_disconnected () =
  let g = Wgraph.create 3 in
  check_true "disconnected stretch inf"
    (Gncg_graph.Spanner.stretch ~host:(fun _ _ -> 1.0) g = Float.infinity)

let test_dot_output () =
  let g = Wgraph.of_edges 3 [ (0, 1, 1.5); (1, 2, 2.0) ] in
  let path = Filename.temp_file "gncg" ".dot" in
  let dot =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Gncg_graph.Dot.to_file path g;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let lines = List.map String.trim (String.split_on_char '\n' dot) in
  check_true "graph header" (List.mem "graph \"G\" {" lines);
  check_true "vertex label" (List.mem "2 [label=\"2\"];" lines);
  check_true "weighted edge" (List.mem "0 -- 1 [label=\"1.5\"];" lines)

let suites =
  [
    ( "graph.wgraph",
      [
        case "basic ops" test_wgraph_basic;
        case "overwrite edge" test_wgraph_overwrite;
        case "remove edge" test_wgraph_remove;
        case "invalid edges rejected" test_wgraph_invalid;
        case "copy independence" test_wgraph_copy_independent;
        case "edges listed once" test_wgraph_edges_once;
      ] );
    ( "graph.heap",
      [
        case "binary heap sorts" test_heap_sorts;
        case "decrease key" test_heap_decrease;
        case "insert_or_decrease" test_heap_insert_or_decrease;
        case "duplicate insert rejected" test_heap_duplicate_insert;
      ] );
    ( "graph.shortest-paths",
      [
        case "line graph" test_dijkstra_line;
        case "disconnected" test_dijkstra_disconnected;
        case "dijkstra = floyd-warshall" test_dijkstra_vs_floyd;
        case "bounded search" test_dijkstra_bounded;
        case "zero-weight edges" test_zero_weight_edges;
      ] );
    ( "graph.structures",
      [
        case "bfs hops" test_bfs_hops;
        case "union-find" test_union_find;
        case "kruskal = prim" test_mst_agree;
        case "components" test_components;
      ] );
    ( "graph.spanner",
      [
        case "greedy spanner property" test_greedy_spanner_property;
        case "disconnected stretch" test_stretch_disconnected;
        case "dot export" test_dot_output;
      ] );
  ]
