(* The flat-adjacency SSSP kernel behind the distance store.  Its rows
   must equal the reference Dijkstra's exactly (bitwise, not within a
   tolerance), before and after arbitrary edits; a bounded pass must settle
   exactly the values below its envelope; a settled guess must become the
   full pass's row bit for bit, whatever the guess; copies must not share
   adjacency with their originals; a what-if that raises must leave the
   store as it found it; a warmed what-if or row kernel must allocate
   a constant amount, independent of n; and at weights of 10⁶ and more
   the store must track fresh Dijkstra within the rounding model through
   random insertions and deletions, bridges included. *)

module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Wgraph = Gncg_graph.Wgraph
module Dijkstra = Gncg_graph.Dijkstra
module Flat_adj = Gncg_graph.Flat_adj
module Incr_apsp = Gncg_graph.Incr_apsp

let seed_gen = QCheck.small_nat

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Integer weights 1-3 make equal-length paths common, some edges weigh
   0, and about one vertex in six is isolated.  Graphs have 2 to [max_n]
   vertices. *)
let tie_weight r = if Prng.coin r 0.1 then 0.0 else float_of_int (1 + Prng.int r 3)

let random_tie_graph ?(max_n = 31) r =
  let n = 2 + Prng.int r (max_n - 1) in
  let g = Wgraph.create n in
  let isolated = Array.init n (fun _ -> Prng.coin r 0.15) in
  for _ = 1 to 2 * n do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && (not isolated.(u)) && (not isolated.(v)) && not (Wgraph.has_edge g u v)
    then Wgraph.add_edge g u v (tie_weight r)
  done;
  g

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

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

(* The same random edit sequence on the graph, the flat adjacency and a
   distance store: the edge sets, weights, degrees and rows stay
   identical throughout, and both snapshots equal the graph. *)
let prop_kernel_tracks_edits seed =
  let r = Prng.create (seed + 1302) in
  let g = random_tie_graph r in
  let n = Wgraph.n g in
  let adj = Flat_adj.of_wgraph g in
  let store = Incr_apsp.of_graph g in
  let ok = ref true in
  for _ = 1 to 25 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then begin
      if Wgraph.has_edge g u v then begin
        Wgraph.remove_edge g u v;
        Flat_adj.remove_edge adj u v;
        ignore (Incr_apsp.remove_edge store u v)
      end
      else begin
        let w = tie_weight r in
        Wgraph.add_edge g u v w;
        Flat_adj.add_edge adj u v w;
        ignore (Incr_apsp.add_edge store u v w)
      end;
      for x = 0 to n - 1 do
        if Flat_adj.degree adj x <> Wgraph.degree g x then ok := false;
        for y = 0 to n - 1 do
          if Flat_adj.weight adj x y <> Wgraph.weight g x y then ok := false
        done
      done;
      if Flat_adj.has_edge adj u v <> Wgraph.has_edge g u v then ok := false;
      if not (Wgraph.equal (Flat_adj.to_wgraph adj) g) then ok := false;
      if not (Wgraph.equal (Incr_apsp.graph store) g) then ok := false;
      if not (rows_equal g adj) then ok := false
    end
  done;
  !ok

(* A dense-store what-if equals Dijkstra on an edited copy of the graph,
   bitwise, and leaves the store's own rows alone.  Graphs reach past the
   size where what-ifs start settling the live row. *)
let prop_whatif_equals_reference seed =
  let r = Prng.create (seed + 1303) in
  let g = random_tie_graph ~max_n:100 r in
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
    let row = Array.make n Float.infinity in
    Incr_apsp.sssp_edited_into e ?remove ?add s row;
    if row <> Dijkstra.sssp edited s then ok := false
  done;
  !ok && Incr_apsp.matrix e = before && Wgraph.equal (Incr_apsp.graph e) g

(* --- bounded passes ------------------------------------------------------- *)

(* A full pass from [src] seeded at [start]: Dijkstra from an extra
   vertex whose one edge, to [src], weighs [start]. *)
let seeded_full g src start =
  let n = Wgraph.n g in
  let g' = Wgraph.create (n + 1) in
  Wgraph.iter_edges g (fun u v w -> Wgraph.add_edge g' u v w);
  Wgraph.add_edge g' n src start;
  Array.sub (Dijkstra.sssp g' n) 0 n

(* The bounded pass's specification: the least seeded value over the
   walks whose running value stays below [bound] at every vertex, by
   relaxing every edge until nothing changes. *)
let bounded_spec g src start bound =
  let d = Array.make (Wgraph.n g) Float.infinity in
  if start < bound.(src) then d.(src) <- 0.0 +. start;
  let changed = ref true in
  let relax a b w =
    let c = d.(a) +. w in
    if c < d.(b) && c < bound.(b) then begin
      d.(b) <- c;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Wgraph.iter_edges g (fun u v w ->
        relax u v w;
        relax v u w)
  done;
  d

(* Any envelope: each entry +inf, the full value itself, or the full
   value moved by up to 2. *)
let random_envelope r full =
  Array.map
    (fun f ->
      match Prng.int r 4 with
      | 0 -> Float.infinity
      | 1 -> f
      | _ -> f +. Prng.float_in r (-2.0) 2.0)
    full

(* An envelope no pass can climb back under: the entrywise maximum of
   rows that satisfy R(y) <= R(z) + w(z,y) on every edge — the full row,
   and Dijkstra rows of the graph with a few edges added.  A supergraph
   row from a vertex of another component is +inf there. *)
let closed_envelope r g full =
  let n = Wgraph.n g in
  let super = Wgraph.copy g in
  for _ = 1 to Prng.int r 4 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && not (Wgraph.has_edge super u v) then Wgraph.add_edge super u v (tie_weight r)
  done;
  let row () = if Prng.coin r 0.3 then full else Dijkstra.sssp super (Prng.int r n) in
  let env = Array.copy (row ()) in
  for _ = 1 to Prng.int r 3 do
    let other = row () in
    Array.iteri (fun x v -> if v > env.(x) then env.(x) <- v) other
  done;
  env

(* Passes from random sources and seeds share one [dist] and one
   [reached], with only the reached entries reset between them.  Against
   any envelope, a pass equals the specification bitwise and reports
   exactly its finite entries; against a closed envelope, every vertex
   whose full value is below the envelope gets that value and every other
   stays +inf.  A full pass afterwards still equals Dijkstra, so the heap
   scratch is left clean. *)
let prop_bounded_pass seed =
  let r = Prng.create (seed + 1306) in
  let g = random_tie_graph r in
  let n = Wgraph.n g in
  let adj = Flat_adj.of_wgraph g in
  let dist = Array.make n Float.infinity and reached = Array.make n (-1) in
  let ok = ref true in
  for _ = 1 to 12 do
    let src = Prng.int r n in
    let start = if Prng.coin r 0.5 then tie_weight r else Prng.float r 4.0 in
    let full = seeded_full g src start in
    let closed = Prng.coin r 0.5 in
    let bound = if closed then closed_envelope r g full else random_envelope r full in
    let k = Flat_adj.sssp_bounded_into adj ~src ~start ~bound dist reached in
    let spec = bounded_spec g src start bound in
    for x = 0 to n - 1 do
      if not (bits_eq dist.(x) spec.(x)) then ok := false;
      if full.(x) >= bound.(x) && dist.(x) <> Float.infinity then ok := false;
      if closed && full.(x) < bound.(x) && not (bits_eq dist.(x) full.(x)) then ok := false
    done;
    let ids = List.sort_uniq compare (Array.to_list (Array.sub reached 0 k)) in
    let finite = List.filter (fun x -> dist.(x) < Float.infinity) (List.init n Fun.id) in
    if List.length ids <> k || ids <> finite then ok := false;
    for i = 0 to k - 1 do
      dist.(reached.(i)) <- Float.infinity
    done
  done;
  !ok && rows_equal g adj

(* --- settling a guessed row ----------------------------------------------- *)

(* A guess at [exact], the full row from [s]: the row itself, every entry
   one ulp off, raised, lowered below the true distance (negative
   included), one entry at +inf, every entry at +inf, or each entry
   perturbed its own way.  The source entry stays 0, as +0 or -0. *)
let adversarial_guess r s exact =
  let n = Array.length exact in
  let one_ulp f = if Prng.coin r 0.5 then Float.succ f else Float.pred f in
  let raise_ f = f +. if Prng.coin r 0.5 then tie_weight r else Prng.float r 3.0 in
  let lower f =
    if f = Float.infinity then Prng.float r 5.0
    else f -. if Prng.coin r 0.5 then 1.0 +. tie_weight r else Prng.float r 3.0
  in
  let mixed f =
    match Prng.int r 6 with
    | 0 -> one_ulp f
    | 1 -> raise_ f
    | 2 -> lower f
    | 3 -> Float.infinity
    | _ -> f
  in
  let guess =
    match Prng.int r 7 with
    | 0 -> Array.copy exact
    | 1 -> Array.map one_ulp exact
    | 2 -> Array.map raise_ exact
    | 3 -> Array.map lower exact
    | 4 ->
      let g = Array.copy exact in
      g.(Prng.int r n) <- Float.infinity;
      g
    | 5 -> Array.make n Float.infinity
    | _ -> Array.map mixed exact
  in
  guess.(s) <- (if Prng.coin r 0.5 then 0.0 else -0.0);
  guess

(* From any guess with a zero source entry, [settle_into] writes the
   full pass's row, bitwise; a guess whose source entry is not zero gets
   a plain pass.  It reports at most n vertices, and none only when the
   guess already was that row off the source.  Without zero weights every
   finite vertex of the row has a strict predecessor, so an exact guess
   then costs no work.  A full pass afterwards still equals Dijkstra, so
   the heap scratch is left clean. *)
let prop_settle_equals_full_pass seed =
  let r = Prng.create (seed + 1307) in
  let g = random_tie_graph r in
  let n = Wgraph.n g in
  let adj = Flat_adj.of_wgraph g in
  let positive = ref true in
  Wgraph.iter_edges g (fun _ _ w -> if w = 0.0 then positive := false);
  let positive = !positive in
  let exact = Array.make n 0.0 in
  let ok = ref true in
  for _ = 1 to 12 do
    let s = Prng.int r n in
    Flat_adj.sssp_into adj s exact;
    let guess = adversarial_guess r s exact in
    if Prng.coin r 0.1 then guess.(s) <- (if Prng.coin r 0.5 then Float.infinity else 1.0);
    let row = Array.copy guess in
    let k = Flat_adj.settle_into adj s row in
    if not (Array.for_all2 bits_eq row exact) then ok := false;
    let was_exact = ref (guess.(s) = 0.0) in
    Array.iteri (fun x f -> if x <> s && not (bits_eq f exact.(x)) then was_exact := false) guess;
    if k > n || (k = 0 && not !was_exact) || (!was_exact && positive && k > 0) then
      ok := false
  done;
  !ok && rows_equal g adj

(* [Flat_adj.insertion_failing_into] and [failing_into]'s full scan run
   the same local test.  With every vertex listed or lowered, split
   between the two at random and with repeats, the insertion rule tests
   each vertex in full, so both must name the same failing vertices of an
   adversarial guess, in the same order. *)
let prop_insertion_test_equals_scan seed =
  let r = Prng.create (seed + 1309) in
  let g = random_tie_graph r in
  let n = Wgraph.n g in
  let adj = Flat_adj.of_wgraph g in
  let exact = Array.make n 0.0 in
  let want = Array.make n 0 and got = Array.make n 0 in
  let ok = ref true in
  for _ = 1 to 12 do
    let s = Prng.int r n in
    Flat_adj.sssp_into adj s exact;
    let row = adversarial_guess r s exact in
    let all = Array.init (2 * n) (fun i -> if i < n then i else Prng.int r n) in
    let nlisted = Prng.int r ((2 * n) + 1) in
    let listed = Array.sub all 0 nlisted and lowered = Array.sub all nlisted ((2 * n) - nlisted) in
    let k =
      Flat_adj.insertion_failing_into adj row s listed nlisted lowered (Array.length lowered) got
    in
    let k' = Flat_adj.failing_into adj s row want in
    if k <> k' || Array.sub got 0 (max k 0) <> Array.sub want 0 k' then ok := false
  done;
  !ok

(* The stateless scan's deletion what-ifs: [sssp_edited_into] seeded with
   the unedited row equals a fresh pass on the edited graph, bitwise, and
   leaves the adjacency's edge set as it was.  Graphs reach past the size
   where what-ifs start settling their guess. *)
let prop_edited_from_unedited_row seed =
  let r = Prng.create (seed + 1308) in
  let g = random_tie_graph ~max_n:100 r in
  let n = Wgraph.n g in
  let adj = Flat_adj.of_wgraph g in
  let ok = ref true in
  for _ = 1 to 12 do
    let s = Prng.int r n in
    let remove =
      match Wgraph.neighbors g s with
      | (v, _) :: _ when Prng.coin r 0.8 -> Some (s, v)
      | _ ->
        let u = Prng.int r n and v = Prng.int r n in
        if u <> v then Some (u, v) else None
    in
    let add =
      let u = Prng.int r n and v = Prng.int r n in
      if u <> v && Prng.coin r 0.4 then Some (u, v, tie_weight r) else None
    in
    let edited = Wgraph.copy g in
    Option.iter (fun (u, v) -> Wgraph.remove_edge edited u v) remove;
    Option.iter
      (fun (u, v, w) -> if not (Wgraph.has_edge edited u v) then Wgraph.add_edge edited u v w)
      add;
    let row = Array.make n 0.0 in
    Flat_adj.sssp_into adj s row;
    ignore (Flat_adj.sssp_edited_into adj ?remove ?add s row);
    if not (Array.for_all2 bits_eq row (Dijkstra.sssp edited s)) then ok := false
  done;
  !ok && rows_equal g adj

(* --- a failed what-if leaves no edit behind ----------------------------- *)

let cycle4 () =
  Wgraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.0); (3, 0, 2.0) ]

let test_failed_whatif_restores () =
  let store = Incr_apsp.of_graph (cycle4 ()) in
  let g = Wgraph.copy (Incr_apsp.graph store) in
  let sum0 = Incr_apsp.sssp_edited_sum store 0 in
  let raises f =
    match f () with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  let whatif_sum ?remove ?add () = Incr_apsp.sssp_edited_sum store ?remove ?add 0 in
  (* Row too short for the store. *)
  raises (fun () -> Incr_apsp.sssp_edited_into store ~remove:(0, 1) 0 (Array.make 2 0.0));
  (* A removal paired with an invalid addition. *)
  raises (fun () -> ignore (whatif_sum ~remove:(0, 1) ~add:(2, 2, 1.0) ()));
  raises (fun () -> ignore (whatif_sum ~remove:(0, 1) ~add:(0, 2, -1.0) ()));
  raises (fun () -> ignore (whatif_sum ~remove:(0, 1) ~add:(0, 9, 1.0) ()));
  Alcotest.(check bool) "graph unchanged" true (Wgraph.equal g (Incr_apsp.graph store));
  Alcotest.(check (float 0.0)) "unedited what-if" sum0 (whatif_sum ());
  Alcotest.(check (float 0.0)) "what-if = dist_sum" (Incr_apsp.dist_sum store 0) (whatif_sum ());
  Alcotest.(check (array (float 0.0)))
    "removal what-if"
    (Dijkstra.sssp
       (let g' = Wgraph.copy g in
        Wgraph.remove_edge g' 0 1;
        g')
       0)
    (let row = Array.make (Incr_apsp.n store) Float.infinity in
     Incr_apsp.sssp_edited_into store ~remove:(0, 1) 0 row;
     row)

(* --- allocation guard ------------------------------------------------- *)

(* Minor words the second of two identical rounds allocates. *)
let warmed_words round =
  round ();
  let before = Gc.minor_words () in
  round ();
  Gc.minor_words () -. before

(* One round of what-ifs on a dense store over a random connected graph
   on [n] vertices. *)
let whatif_words n =
  let g = Helpers.random_graph (Prng.create 1305) n n in
  let store = Incr_apsp.of_graph g in
  let nb = match Wgraph.neighbors g 0 with (v, _) :: _ -> v | [] -> assert false in
  let far = ref 1 in
  while Wgraph.has_edge g 0 !far do
    incr far
  done;
  let far = !far in
  let dst = Array.make n 0.0 in
  let round () =
    ignore (Incr_apsp.sssp_edited_sum store 0);
    ignore (Incr_apsp.sssp_edited_sum store ~remove:(0, nb) 0);
    ignore (Incr_apsp.sssp_edited_sum store ~remove:(0, nb) ~add:(0, far, 1.5) 0);
    Incr_apsp.sssp_edited_into store 0 dst;
    Incr_apsp.sssp_edited_into store ~remove:(0, nb) 0 dst;
    Incr_apsp.sssp_edited_into store ~remove:(0, nb) ~add:(0, far, 1.5) 0 dst
  in
  warmed_words round

(* The same for the store's row kernels: nothing grows with n. *)
let row_kernel_words n =
  let store = Incr_apsp.of_graph (Helpers.random_graph (Prng.create 1306) n n) in
  let against = (Incr_apsp.matrix store).(n - 1) in
  let round () =
    ignore (Sys.opaque_identity (Incr_apsp.dist_sum store 0));
    ignore (Sys.opaque_identity (Incr_apsp.dist_sum_with_edge store 0 (n / 2) 1.5));
    ignore (Sys.opaque_identity (Incr_apsp.min_sum_against store against 0 1.5))
  in
  warmed_words round

let test_whatif_allocation_constant () =
  let small = whatif_words 50 and large = whatif_words 200 in
  Alcotest.(check (float 0.0)) "minor words at n = 50 and n = 200" small large;
  let small = row_kernel_words 50 and large = row_kernel_words 400 in
  Alcotest.(check (float 0.0)) "row kernel minor words at n = 50 and n = 400" small large

(* --- the rounding model at large weights ---------------------------------- *)

(* Every entry of the store against a fresh Dijkstra of the same edge
   set: the same finiteness and within the model's margin
   ([Flt.stored_eq]). *)
let check_store_model label store g =
  let n = Wgraph.n g in
  for s = 0 to n - 1 do
    let want = Dijkstra.sssp g s in
    for x = 0 to n - 1 do
      let got = Incr_apsp.distance store s x in
      if not (Flt.stored_eq n got want.(x)) then
        Alcotest.failf "%s: d(%d,%d) = %h, Dijkstra %h" label s x got want.(x)
    done
  done

(* Thirty random trees per weight scale, each edited 300 times: a
   present edge is removed, often a bridge, or an absent pair inserted,
   at weights in [1, 10] times the scale.  A deletion must select every
   row whose paths used the edge even when insertion rounding leaves the
   row's d(s,u) + w an ulp or more away from d(s,v), an ulp that passes
   the absolute 1e-9 from about 10⁶ on; a skipped row keeps finite
   entries to the part a bridge cut off. *)
let test_edits_track_dijkstra_at_scale () =
  List.iter
    (fun scale ->
      let r = Prng.create 1310 in
      for instance = 1 to 30 do
        let n = 8 + Prng.int r 23 in
        let g = Helpers.random_graph ~wmin:scale ~wmax:(10.0 *. scale) r n 0 in
        let store = Incr_apsp.of_graph g in
        for step = 1 to 300 do
          let label = Printf.sprintf "scale %g, instance %d, edit %d" scale instance step in
          (match Wgraph.edges g with
          | (_ :: _ as es) when Prng.coin r 0.5 ->
            let u, v, _ = List.nth es (Prng.int r (List.length es)) in
            Wgraph.remove_edge g u v;
            ignore (Incr_apsp.remove_edge store u v)
          | _ ->
            let u = Prng.int r n and v = Prng.int r n in
            if u <> v && not (Wgraph.has_edge g u v) then begin
              let w = scale *. Prng.float_in r 1.0 10.0 in
              Wgraph.add_edge g u v w;
              ignore (Incr_apsp.add_edge store u v w)
            end);
          check_store_model label store g
        done
      done)
    [ 1e6; 1e10 ]

(* [Incr_apsp.deletion_tol], the deletion test's inlined copy, is
   [max Flt.eps (Flt.stored_margin n (max dsu dsv + w))] bit for bit,
   on both sides of the floor and at infinity. *)
let test_deletion_tol_copy_bits () =
  let r = Prng.create 1320 in
  let values =
    [ 0.0; 1e-300; 0.5; 1.0; 563.0; 1e6; 1048576.0; 1e10; 1e300; Float.infinity ]
    @ List.init 20 (fun _ -> Float.pow 10.0 (Prng.float_in r (-6.0) 14.0))
  in
  List.iter
    (fun n ->
      List.iter
        (fun dsu ->
          List.iter
            (fun dsv ->
              List.iter
                (fun w ->
                  let copy = Incr_apsp.deletion_tol n dsu dsv w in
                  let model = Float.max Flt.eps (Flt.stored_margin n (Float.max dsu dsv +. w)) in
                  if not (bits_eq copy model) then
                    Alcotest.failf "n=%d dsu=%h dsv=%h w=%h: copy %h, Flt %h" n dsu dsv w copy
                      model)
                [ 0.0; 1.0; 7.25; 1e8 ])
            values)
        values)
    [ 1; 2; 14; 150; 1000; 100_000 ]

let suites =
  [
    ( "sssp-kernel",
      [
        qtest "kernel row = Dijkstra.sssp, bitwise" seed_gen prop_kernel_equals_reference;
        qtest ~count:30 "kernel tracks add/remove" seed_gen prop_kernel_tracks_edits;
        qtest ~count:30 "dense what-if = Dijkstra on edited graph" seed_gen
          prop_whatif_equals_reference;
        qtest ~count:100 "bounded pass = spec; below a closed envelope = full pass" seed_gen
          prop_bounded_pass;
        Alcotest.test_case "failed what-if restores dense" `Quick test_failed_whatif_restores;
        Alcotest.test_case "what-if allocation independent of n" `Quick
          test_whatif_allocation_constant;
        qtest ~count:200 "settled guess = full pass, bitwise" seed_gen
          prop_settle_equals_full_pass;
        qtest ~count:200 "insertion local test = full scan" seed_gen
          prop_insertion_test_equals_scan;
        qtest ~count:100 "what-if seeded with the unedited row = fresh pass" seed_gen
          prop_edited_from_unedited_row;
        Alcotest.test_case "edits at 1e6 and 1e10 track Dijkstra within the model" `Quick
          test_edits_track_dijkstra_at_scale;
        Alcotest.test_case "inlined deletion tolerance = Flt (bits)" `Quick
          test_deletion_tol_copy_bits;
      ] );
  ]
