(* The suspect sets of [Incr_apsp]: each stored row may carry a set
   outside which every vertex passes the settle's local test, and the
   settles of deletion rows and what-ifs test only the set plus the
   endpoints of their edit.  A set that misses a failing vertex would
   leave that vertex unsettled, so the invariant is checked directly
   after every edit of random insert/delete walks, against the full
   scan of a fresh adjacency, and every what-if along the way must equal
   a fresh pass on the edited graph bit for bit.  The walks run at
   n = 70, above the size where what-ifs settle the live row, on
   [Helpers.adversarial_hosts]: the 7 CLI families, all-ones, 1-2, the
   zero-weight line, weights over four decades, a host with an
   unreachable part and weights scaled by 2²⁰ up to 10¹⁰.  Hand-built
   cases pin each upkeep rule.  The insertion rules use injected cell
   errors, which make the rows an insertion reads disagree with the
   rows it writes: an unchanged row gains an endpoint; a changed row
   keeps its old suspects, tests u, v and the lowered entries in full
   and a lowered entry's neighbours for a lower offer, and loses its set
   when more than 8 vertices fail.  The deletion's rewrite uses a
   zero-weight edge. *)

open Helpers
module Prng = Gncg_util.Prng
module Host = Gncg.Host
module Wgraph = Gncg_graph.Wgraph
module Flat_adj = Gncg_graph.Flat_adj
module Incr_apsp = Gncg_graph.Incr_apsp

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Checks every known set against the full scan of its row on a fresh
   adjacency of the tracked edge set.  Returns how many rows had a set
   and how many of those sets were non-empty. *)
let check_cover label store =
  let n = Incr_apsp.n store in
  let adj = Flat_adj.of_wgraph (Incr_apsp.graph store) in
  let m = Incr_apsp.matrix store in
  let out = Array.make n 0 in
  let known = ref 0 and nonempty = ref 0 in
  for s = 0 to n - 1 do
    match Incr_apsp.suspects store s with
    | None -> ()
    | Some set ->
      incr known;
      if set <> [] then incr nonempty;
      let k = Flat_adj.failing_into adj s m.(s) out in
      for i = 0 to k - 1 do
        if not (List.mem out.(i) set) then
          Alcotest.failf "%s: row %d: vertex %d fails outside its set" label s out.(i)
      done
  done;
  (!known, !nonempty)

(* A what-if from [s] against [Flat_adj.sssp_into] on an edited copy of
   the tracked graph, bit for bit. *)
let check_whatif label store ?remove ?add s =
  let n = Incr_apsp.n store in
  let edited = Incr_apsp.graph store in
  Option.iter (fun (u, v) -> Wgraph.remove_edge edited u v) remove;
  Option.iter
    (fun (u, v, w) -> if not (Wgraph.has_edge edited u v) then Wgraph.add_edge edited u v w)
    add;
  let want = Array.make n 0.0 in
  Flat_adj.sssp_into (Flat_adj.of_wgraph edited) s want;
  let row = Array.make n Float.nan in
  Incr_apsp.sssp_edited_into store ?remove ?add s row;
  Array.iteri
    (fun x f ->
      if not (bits_eq f want.(x)) then
        Alcotest.failf "%s: what-if from %d: d(%d) = %h, fresh pass %h" label s x f want.(x))
    row

(* Three what-ifs on random sources, shaped like the evaluator's: most
   sell one of the source's edges, some also buy a new one, and some
   edit a pair away from the source. *)
let random_whatifs label r host store =
  let n = Incr_apsp.n store in
  let g = Incr_apsp.graph store in
  for _ = 1 to 3 do
    let s = Prng.int r n in
    let remove =
      match Wgraph.neighbors g s with
      | _ :: _ as nb when Prng.coin r 0.8 ->
        Some (s, fst (List.nth nb (Prng.int r (List.length nb))))
      | _ ->
        let u = Prng.int r n and v = Prng.int r n in
        if u <> v && Prng.coin r 0.5 then Some (u, v) else None
    in
    let add =
      let u = if Prng.coin r 0.8 then s else Prng.int r n and v = Prng.int r n in
      let w = Host.weight host u v in
      if u <> v && Float.is_finite w && Prng.coin r 0.5 then Some (u, v, w) else None
    in
    check_whatif label store ?remove ?add s
  done

let test_sets_cover_failures () =
  let r = rng 3000 in
  let n = 70 in
  let known = ref 0 and nonempty = ref 0 and kept = ref 0 in
  let tally (k, e) =
    known := !known + k;
    nonempty := !nonempty + e
  in
  List.iter
    (fun (name, make) ->
      for trial = 1 to 2 do
        let host = make n in
        let store = Test_support.random_store r host in
        for step = 1 to 80 do
          let label = Printf.sprintf "%s trial %d step %d" name trial step in
          let u = Prng.int r n and v = Prng.int r n in
          let w = Host.weight host u v in
          if u <> v && Float.is_finite w then begin
            if Wgraph.has_edge (Incr_apsp.graph store) u v then
              ignore (Incr_apsp.remove_edge store u v)
            else begin
              let had = Array.init n (fun s -> Incr_apsp.suspects store s <> None) in
              let changed = Incr_apsp.add_edge store u v w in
              Gncg_graph.Changed_rows.iter
                (fun s -> if had.(s) && Incr_apsp.suspects store s <> None then incr kept)
                changed
            end;
            tally (check_cover label store)
          end;
          random_whatifs label r host store;
          tally (check_cover (label ^ ", after what-ifs") store)
        done
      done)
    (adversarial_hosts r ~alpha:2.0);
  (* The walks kept sets, some of them named failing vertices, and some
     rows that an insertion changed kept theirs. *)
  check_true "rows with a set were checked" (!known > 10_000);
  check_true "some sets were non-empty" (!nonempty > 0);
  check_true "some changed rows kept a set" (!kept > 0)

(* Seventy vertices, so that what-ifs settle their guess: the given
   edges plus isolated vertices. *)
let padded edges = Incr_apsp.of_graph (Wgraph.of_edges 70 edges)

(* Records row 0's set through a what-if that edits nothing. *)
let record_row0 store =
  check_whatif "recording row 0" store 0;
  check_true "row 0 has an empty set" (Incr_apsp.suspects store 0 = Some [])

(* Row 1's cell d(1,0) raised from 1 to 2 hides the new edge (1,2) from
   the relaxation of row 0: the row keeps its values, yet the edge
   offers vertex 2 the value fl(d(0,1) + 1.5) = 2.5 < d(0,2) = 3.  The
   insertion must add 2 to row 0's set, or the next what-if from 0
   keeps the stale 3. *)
let test_unchanged_row_gains_endpoint () =
  let store = padded [ (0, 1, 1.0); (0, 2, 3.0) ] in
  record_row0 store;
  Incr_apsp.inject_cell_error store 1 0 1.0;
  let changed = Incr_apsp.add_edge store 1 2 1.5 in
  check_false "row 0 unchanged" (Gncg_graph.Changed_rows.mem changed 0);
  check_true "vertex 2 joined row 0's set" (Incr_apsp.suspects store 0 = Some [ 2 ]);
  check_whatif "after the insertion" store 0;
  Alcotest.(check (float 0.0)) "d(0,2) settled" 2.5
    (let row = Array.make 70 0.0 in
     Incr_apsp.sssp_edited_into store 0 row;
     row.(2))

(* Row 1's cell d(1,3) lowered from 1 to 0.5 reaches row 0 through the
   relaxation for the new edge (1,2): d(0,3) becomes 1 + 1 + 0.5 = 2.5,
   a value no edge supports.  Vertex 3 is a lowered entry, tested in
   full: the changed row's set must be the one a full scan finds, {3},
   or the next what-if from 0 keeps 2.5 instead of 3. *)
let test_changed_row_tests_lowered () =
  let store = padded [ (0, 2, 1.0); (0, 1, 10.0); (1, 3, 1.0) ] in
  record_row0 store;
  Incr_apsp.inject_cell_error store 1 3 (-0.5);
  let changed = Incr_apsp.add_edge store 1 2 1.0 in
  check_true "row 0 changed" (Gncg_graph.Changed_rows.mem changed 0);
  check_true "row 0's set is {3}" (Incr_apsp.suspects store 0 = Some [ 3 ]);
  ignore (check_cover "after the insertion" store);
  check_whatif "after the insertion" store 0

(* Row 1's cell d(1,3) raised from 1 to 11 hides vertex 3 from the
   relaxation for the new edge (1,2), which lowers d(0,1) from 10 to 2.
   Vertex 3 keeps d(0,3) = 11 although its neighbour 1 now offers
   2 + 1 = 3: it is neither an endpoint nor lowered, and only the test of
   a lowered entry's neighbours finds it. *)
let test_changed_row_tests_neighbours () =
  let store = padded [ (0, 2, 1.0); (0, 1, 10.0); (1, 3, 1.0) ] in
  record_row0 store;
  Incr_apsp.inject_cell_error store 1 3 10.0;
  let changed = Incr_apsp.add_edge store 1 2 1.0 in
  check_true "row 0 changed" (Gncg_graph.Changed_rows.mem changed 0);
  check_true "vertex 3 is row 0's suspect" (Incr_apsp.suspects store 0 = Some [ 3 ]);
  ignore (check_cover "after the insertion" store);
  check_whatif "after the insertion" store 0

(* Vertex 2 of row 0 is reached only over the zero-weight edge (1,2), so
   it fails and is row 0's suspect.  The insertion of (0,4) lowers
   d(0,4) from 10 to 1 and touches nothing near 2: the changed row must
   keep its old suspect. *)
let test_changed_row_keeps_suspects () =
  let store = padded [ (0, 1, 1.0); (1, 2, 0.0); (0, 3, 5.0); (3, 4, 5.0) ] in
  check_whatif "recording row 0" store 0;
  check_true "vertex 2 is row 0's suspect" (Incr_apsp.suspects store 0 = Some [ 2 ]);
  let changed = Incr_apsp.add_edge store 0 4 1.0 in
  check_true "row 0 changed" (Gncg_graph.Changed_rows.mem changed 0);
  check_true "vertex 2 is still row 0's suspect" (Incr_apsp.suspects store 0 = Some [ 2 ]);
  ignore (check_cover "after the insertion" store);
  check_whatif "after the insertion" store 0

(* Edges (0,1) of weight 1, (0,2) of 3 and (2,5) of 1.  The injected
   cells d(1,0) = 2 and d(2,0) = 13 make the new edge (1,2) of weight 1.5
   look useless for reaching vertex 2 from 0 (2 + 1.5 > 3), and
   d(2,5) = 0.1 makes it lower d(0,5) from 4 to 3.6.  Row 0 changes, yet
   its endpoint 2, neither lowered nor next to a lowered entry that
   offers it less, now fails: fl(d(0,1) + 1.5) = 2.5 < 3.  The insertion
   must test the endpoints in full, whichever of them the call names
   first. *)
let test_changed_row_tests_endpoints () =
  List.iter
    (fun (u, v) ->
      let label = Printf.sprintf "add_edge %d %d" u v in
      let store = padded [ (0, 1, 1.0); (0, 2, 3.0); (2, 5, 1.0) ] in
      record_row0 store;
      Incr_apsp.inject_cell_error store 1 0 1.0;
      Incr_apsp.inject_cell_error store 2 0 10.0;
      Incr_apsp.inject_cell_error store 2 5 (-0.9);
      let changed = Incr_apsp.add_edge store u v 1.5 in
      check_true (label ^ ": row 0 changed") (Gncg_graph.Changed_rows.mem changed 0);
      check_true (label ^ ": row 0's set is {2, 5}") (Incr_apsp.suspects store 0 = Some [ 2; 5 ]);
      ignore (check_cover label store);
      check_whatif label store 0)
    [ (1, 2); (2, 1) ]

(* As in [test_changed_row_tests_lowered], with ten leaves 3 .. 12 on
   vertex 1 whose cells d(1,y) are all lowered by 0.5: the insertion
   lowers each d(0,y) to a value no edge supports, ten failing vertices,
   more than a set holds. *)
let test_changed_row_overflows () =
  let leaves = List.init 10 (fun i -> i + 3) in
  let store = padded ([ (0, 2, 1.0); (0, 1, 10.0) ] @ List.map (fun y -> (1, y, 1.0)) leaves) in
  record_row0 store;
  List.iter (fun y -> Incr_apsp.inject_cell_error store 1 y (-0.5)) leaves;
  let changed = Incr_apsp.add_edge store 1 2 1.0 in
  check_true "row 0 changed" (Gncg_graph.Changed_rows.mem changed 0);
  check_true "row 0 has no set" (Incr_apsp.suspects store 0 = None);
  check_whatif "after the insertion" store 0;
  check_true "the what-if's full scan found ten" (Incr_apsp.suspects store 0 = None)

(* Deleting (0,2) leaves vertex 2 of row 0 reached only over the
   zero-weight edge (1,2): its value 1 has no strict exact predecessor,
   so it fails the test after the settle too.  The deletion must write
   it into row 0's set. *)
let test_deletion_rewrites_set () =
  let store = padded [ (0, 1, 1.0); (1, 2, 0.0); (0, 2, 1.0) ] in
  record_row0 store;
  ignore (Incr_apsp.remove_edge store 0 2);
  check_true "vertex 2 is row 0's suspect" (Incr_apsp.suspects store 0 = Some [ 2 ]);
  ignore (check_cover "after the deletion" store);
  check_whatif "after the deletion" store 0

(* At n = 70: sets recorded by what-ifs on every source, then a cell
   error found by [selfcheck_now].  The repair's rebuild drops every
   set, and what-ifs and further edits stay exact afterwards. *)
let test_sentinel_drops_sets () =
  let r = rng 3010 in
  let store = Incr_apsp.of_graph (random_graph r 70 90) in
  let n = Incr_apsp.n store in
  for s = 0 to n - 1 do
    check_whatif "before" store s
  done;
  check_true "every row has a set"
    (List.for_all (fun s -> Incr_apsp.suspects store s <> None) (List.init n Fun.id));
  Incr_apsp.inject_cell_error store 3 11 0.125;
  check_true "row 3 lost its set" (Incr_apsp.suspects store 3 = None);
  check_false "the probe finds the error" (Incr_apsp.selfcheck_now store);
  check_true "the repair dropped every set"
    (List.for_all (fun s -> Incr_apsp.suspects store s = None) (List.init n Fun.id));
  for s = 0 to n - 1 do
    check_whatif "after the repair" store s
  done;
  let g = Incr_apsp.graph store in
  Wgraph.iter_edges g (fun u v _ ->
      if (u + v) mod 7 = 0 then begin
        ignore (Incr_apsp.remove_edge store u v);
        ignore (check_cover "after a deletion" store);
        check_whatif "after a deletion" store u
      end)

let suites =
  [
    ( "suspect-sets",
      [
        case "known sets cover every failing vertex; what-ifs exact" test_sets_cover_failures;
        case "an unchanged row gains the endpoint offered less" test_unchanged_row_gains_endpoint;
        case "a changed row keeps the set a full scan finds" test_changed_row_tests_lowered;
        case "a lowered entry's neighbour offered less fails" test_changed_row_tests_neighbours;
        case "old suspects stay in a changed row's set" test_changed_row_keeps_suspects;
        case "both endpoints are tested in a changed row" test_changed_row_tests_endpoints;
        case "more than 8 failures leave no set" test_changed_row_overflows;
        case "a deletion rewrites the set of a settled row" test_deletion_rewrites_set;
        case "sentinel repair drops the sets" test_sentinel_drops_sets;
      ] );
  ]
