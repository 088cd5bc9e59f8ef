(* The flat-adjacency SSSP kernel behind every distance store.  Its rows
   must equal the reference Dijkstra's exactly (bitwise, not within a
   tolerance), before and after arbitrary edits; copies must not share
   adjacency with their originals; a what-if that raises must leave the
   store as it found it; and a warmed what-if must allocate a constant
   amount, independent of n. *)

module Prng = Gncg_util.Prng
module Wgraph = Gncg_graph.Wgraph
module Dijkstra = Gncg_graph.Dijkstra
module Flat_adj = Gncg_graph.Flat_adj
module Incr_apsp = Gncg_graph.Incr_apsp
module D = Gncg_graph.Distances

let seed_gen = QCheck.small_nat

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Integer weights 1-3 make equal-length paths common, some edges weigh
   0, and about one vertex in six is isolated. *)
let tie_weight r = if Prng.coin r 0.1 then 0.0 else float_of_int (1 + Prng.int r 3)

let random_tie_graph r =
  let n = 2 + Prng.int r 30 in
  let g = Wgraph.create n in
  let isolated = Array.init n (fun _ -> Prng.coin r 0.15) in
  for _ = 1 to 2 * n do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && (not isolated.(u)) && (not isolated.(v)) && not (Wgraph.has_edge g u v)
    then Wgraph.add_edge g u v (tie_weight r)
  done;
  g

let rows_equal g adj =
  let row = Array.make (Wgraph.n g) 0.0 in
  let ok = ref true in
  for s = 0 to Wgraph.n g - 1 do
    Flat_adj.sssp_into adj s row;
    if row <> Dijkstra.sssp g s then ok := false
  done;
  !ok

let prop_kernel_equals_reference seed =
  let g = random_tie_graph (Prng.create (seed + 1301)) in
  rows_equal g (Flat_adj.of_wgraph g)

(* The same random edit sequence on the graph and the flat adjacency:
   the edge sets, degrees and rows stay identical throughout. *)
let prop_kernel_tracks_edits seed =
  let r = Prng.create (seed + 1302) in
  let g = random_tie_graph r in
  let n = Wgraph.n g in
  let adj = Flat_adj.of_wgraph g in
  let ok = ref true in
  for _ = 1 to 25 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then begin
      if Wgraph.has_edge g u v then begin
        Wgraph.remove_edge g u v;
        Flat_adj.remove_edge adj u v
      end
      else begin
        let w = tie_weight r in
        Wgraph.add_edge g u v w;
        Flat_adj.add_edge adj u v w
      end;
      for x = 0 to n - 1 do
        if Flat_adj.degree adj x <> Wgraph.degree g x then ok := false
      done;
      if Flat_adj.has_edge adj u v <> Wgraph.has_edge g u v then ok := false;
      if not (rows_equal g adj) then ok := false
    end
  done;
  !ok

(* A dense-store what-if equals Dijkstra on an edited copy of the graph,
   bitwise, and leaves the store's own rows alone. *)
let prop_whatif_equals_reference seed =
  let r = Prng.create (seed + 1303) in
  let g = random_tie_graph r in
  let n = Wgraph.n g in
  let e = Incr_apsp.of_graph g in
  let before = Incr_apsp.matrix e in
  let ok = ref true in
  for _ = 1 to 10 do
    let s = Prng.int r n in
    let ru = Prng.int r n and rv = Prng.int r n in
    let au = Prng.int r n and av = Prng.int r n in
    let remove = if ru <> rv then Some (ru, rv) else None in
    let add = if au <> av then Some (au, av, tie_weight r) else None in
    let edited = Wgraph.copy g in
    Option.iter (fun (u, v) -> Wgraph.remove_edge edited u v) remove;
    Option.iter
      (fun (u, v, w) -> if not (Wgraph.has_edge edited u v) then Wgraph.add_edge edited u v w)
      add;
    if Incr_apsp.sssp_edited e ?remove ?add s <> Dijkstra.sssp edited s then ok := false
  done;
  !ok && Incr_apsp.matrix e = before && Wgraph.equal (Incr_apsp.graph e) g

(* Edits and what-ifs on a copy never reach the original. *)
let prop_copy_is_independent seed =
  let r = Prng.create (seed + 1304) in
  let g = random_tie_graph r in
  let n = Wgraph.n g in
  let e = Incr_apsp.of_graph g in
  let dd = D.dense (Wgraph.copy g) in
  let removal s = (s, (s + 1) mod n) in
  let whatifs () = Array.init n (fun s -> Incr_apsp.sssp_edited e ~remove:(removal s) s) in
  let dwhatifs () = Array.init n (fun s -> D.sssp_edited dd ~remove:(removal s) s) in
  let rows0 = Incr_apsp.matrix e and whatifs0 = whatifs () in
  let drows0 = D.matrix dd and dwhatifs0 = dwhatifs () in
  let c = Incr_apsp.copy e and dc = D.copy dd in
  for _ = 1 to 15 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then begin
      ignore (Incr_apsp.sssp_edited c ~remove:(u, v) ~add:(v, (v + 1) mod n, 1.0) u);
      ignore (D.sssp_edited_sum dc ~remove:(u, v) u);
      if Wgraph.has_edge (Incr_apsp.graph c) u v then begin
        ignore (Incr_apsp.remove_edge c u v);
        ignore (D.remove_edge dc u v)
      end
      else begin
        let w = tie_weight r in
        ignore (Incr_apsp.add_edge c u v w);
        ignore (D.add_edge dc u v w)
      end
    end
  done;
  Incr_apsp.matrix e = rows0 && whatifs () = whatifs0 && D.matrix dd = drows0
  && dwhatifs () = dwhatifs0

(* --- a failed what-if leaves no edit behind ----------------------------- *)

let cycle4 () =
  Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.0); (3, 0, 2.0) ]

let path4 () = Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.0) ]

let check_failed_whatif_restores name store =
  let g = match D.graph store with Some g -> Wgraph.copy g | None -> assert false in
  let sum0 = D.sssp_edited_sum store 0 in
  let raises f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  (* Row too short for the store. *)
  raises (fun () -> D.sssp_edited_into store ~remove:(0, 1) 0 (Array.make 2 0.0));
  (* A removal paired with an invalid addition. *)
  raises (fun () -> ignore (D.sssp_edited_sum store ~remove:(0, 1) ~add:(2, 2, 1.0) 0));
  raises (fun () -> ignore (D.sssp_edited_sum store ~remove:(0, 1) ~add:(0, 2, -1.0) 0));
  raises (fun () -> ignore (D.sssp_edited_sum store ~remove:(0, 1) ~add:(0, 9, 1.0) 0));
  Alcotest.(check bool) (name ^ ": graph unchanged") true
    (Wgraph.equal g (Option.get (D.graph store)));
  Alcotest.(check (float 0.0)) (name ^ ": unedited what-if") sum0 (D.sssp_edited_sum store 0);
  Alcotest.(check (float 0.0)) (name ^ ": what-if = dist_sum") (D.dist_sum store 0)
    (D.sssp_edited_sum store 0);
  Alcotest.(check (array (float 0.0)))
    (name ^ ": removal what-if") (Dijkstra.sssp
       (let g' = Wgraph.copy g in
        Wgraph.remove_edge g' 0 1;
        g')
       0)
    (D.sssp_edited store ~remove:(0, 1) 0)

let test_failed_whatif_dense () = check_failed_whatif_restores "dense" (D.dense (cycle4 ()))
let test_failed_whatif_tree () = check_failed_whatif_restores "tree" (D.tree (path4 ()))

(* --- allocation guard ------------------------------------------------- *)

(* Minor words one warmed round of what-ifs allocates on a dense store
   over a random connected graph on [n] vertices. *)
let whatif_words n =
  let g = Helpers.random_graph (Prng.create 1305) n n in
  let store = D.dense g in
  let g = Option.get (D.graph store) in
  let nb = match Wgraph.neighbors g 0 with (v, _) :: _ -> v | [] -> assert false in
  let far = ref 1 in
  while Wgraph.has_edge g 0 !far do
    incr far
  done;
  let far = !far in
  let dst = Array.make n 0.0 in
  let round () =
    ignore (D.sssp_edited_sum store 0);
    ignore (D.sssp_edited_sum store ~remove:(0, nb) 0);
    ignore (D.sssp_edited_sum store ~remove:(0, nb) ~add:(0, far, 1.5) 0);
    D.sssp_edited_into store 0 dst;
    D.sssp_edited_into store ~remove:(0, nb) 0 dst;
    D.sssp_edited_into store ~remove:(0, nb) ~add:(0, far, 1.5) 0 dst
  in
  round ();
  let before = Gc.minor_words () in
  round ();
  Gc.minor_words () -. before

let test_whatif_allocation_constant () =
  let small = whatif_words 50 and large = whatif_words 200 in
  Alcotest.(check (float 0.0)) "minor words at n = 50 and n = 200" small large

let suites =
  [
    ( "sssp-kernel",
      [
        qtest "kernel row = Dijkstra.sssp, bitwise" seed_gen prop_kernel_equals_reference;
        qtest ~count:30 "kernel tracks add/remove" seed_gen prop_kernel_tracks_edits;
        qtest ~count:30 "dense what-if = Dijkstra on edited graph" seed_gen
          prop_whatif_equals_reference;
        qtest ~count:20 "copies are independent" seed_gen prop_copy_is_independent;
        Alcotest.test_case "failed what-if restores dense" `Quick test_failed_whatif_dense;
        Alcotest.test_case "failed what-if restores tree" `Quick test_failed_whatif_tree;
        Alcotest.test_case "what-if allocation independent of n" `Quick
          test_whatif_allocation_constant;
      ] );
  ]
