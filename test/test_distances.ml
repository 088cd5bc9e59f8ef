(* Equivalence of every DISTANCES backend against from-scratch oracles:
   the tree and R^d implicit backends must agree with a fresh Dijkstra /
   the tabulated point metric within Flt tolerance, the k-d index must
   agree with a linear scan,
   Net_state must auto-select the right backend, and each backend's
   drift sentinel must detect and heal injected cell faults. *)

module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Wgraph = Gncg_graph.Wgraph
module Dijkstra = Gncg_graph.Dijkstra
module D = Gncg_graph.Distances
module Kd_tree = Gncg_graph.Kd_tree
module Pnorm = Gncg_graph.Pnorm
module Tree_metric = Gncg_metric.Tree_metric
module Euclidean = Gncg_metric.Euclidean
module Geometry = Gncg_metric.Geometry
module Random_host = Gncg_metric.Random_host
module Instances = Gncg_workload.Instances

let seed_gen = QCheck.small_nat

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let close = Flt.approx_eq ~tol:1e-6

(* Both infinite, or close: the what-if probes legitimately produce
   unreachable vertices when an edit disconnects the network. *)
let close_or_inf a b = (a = Float.infinity && b = Float.infinity) || close a b

let random_tree r n =
  Tree_metric.graph (Tree_metric.random r ~n ~wmin:0.5 ~wmax:9.0)

(* --- tree oracle vs fresh Dijkstra --- *)

let prop_tree_matches_dijkstra seed =
  let r = Prng.create (seed + 801) in
  let n = 4 + Prng.int r 40 in
  let g = random_tree r n in
  let td = D.tree (Wgraph.copy g) in
  let reference = Dijkstra.apsp g in
  let ok = ref true in
  for u = 0 to n - 1 do
    let sum = ref 0.0 in
    for v = 0 to n - 1 do
      sum := !sum +. reference.(u).(v);
      if not (close (D.distance td u v) reference.(u).(v)) then ok := false
    done;
    if not (Flt.approx_eq ~tol:1e-6 (D.dist_sum td u) !sum) then ok := false
  done;
  !ok

let prop_tree_kernels_match_dense seed =
  let r = Prng.create (seed + 802) in
  let n = 4 + Prng.int r 24 in
  let g = random_tree r n in
  let td = D.tree (Wgraph.copy g) in
  let dd = D.dense (Wgraph.copy g) in
  let ok = ref true in
  for _ = 1 to 8 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then begin
      let w = Prng.float_in r 0.5 9.0 in
      if
        not
          (close (D.dist_sum_with_edge td u v w) (D.dist_sum_with_edge dd u v w))
      then ok := false;
      let against = D.row dd v in
      if
        not (close (D.min_sum_against td against u w) (D.min_sum_against dd against u w))
      then ok := false
    end
  done;
  !ok

(* What-if edits on the tree oracle: additions, and swaps that may
   disconnect (both sides must then report the same infinities). *)
let prop_tree_whatif_matches_dense seed =
  let r = Prng.create (seed + 803) in
  let n = 4 + Prng.int r 20 in
  let g = random_tree r n in
  let td = D.tree (Wgraph.copy g) in
  let dd = D.dense (Wgraph.copy g) in
  let edges = Array.of_list (Wgraph.edges g) in
  let ok = ref true in
  let compare_rows s ?remove ?add () =
    let a = D.sssp_edited td ?remove ?add s in
    let b = D.sssp_edited dd ?remove ?add s in
    for x = 0 to n - 1 do
      if not (close_or_inf a.(x) b.(x)) then ok := false
    done;
    let sa = D.sssp_edited_sum td ?remove ?add s in
    let sb = D.sssp_edited_sum dd ?remove ?add s in
    if not (close_or_inf sa sb) then ok := false
  in
  for _ = 1 to 6 do
    let s = Prng.int r n in
    let u = Prng.int r n and v = Prng.int r n in
    let eu, ev, _ = edges.(Prng.int r (Array.length edges)) in
    if u <> v && not (Wgraph.has_edge g u v) then begin
      let w = Prng.float_in r 0.2 4.0 in
      compare_rows s ~add:(u, v, w) ();
      compare_rows s ~remove:(eu, ev) ~add:(u, v, w) ()
    end;
    compare_rows s ~remove:(eu, ev) ()
  done;
  !ok

(* --- R^d oracle vs the tabulated point metric --- *)

let norms = [| Euclidean.L1; Euclidean.L2; Euclidean.Lp 3.0; Euclidean.Linf |]

let prop_rd_matches_metric seed =
  let r = Prng.create (seed + 804) in
  let n = 4 + Prng.int r 24 in
  let d = 1 + Prng.int r 3 in
  let norm = norms.(Prng.int r 4) in
  let pts = Euclidean.random_uniform r ~n ~d ~lo:(-5.0) ~hi:5.0 in
  let rd = D.rd (Geometry.pnorm norm) pts in
  let m = Euclidean.metric norm pts in
  let ok = ref true in
  for u = 0 to n - 1 do
    let sum = ref 0.0 in
    for v = 0 to n - 1 do
      let w = if u = v then 0.0 else Gncg_metric.Metric.weight m u v in
      sum := !sum +. w;
      if not (close (D.distance rd u v) w) then ok := false
    done;
    if not (Flt.approx_eq ~tol:1e-6 (D.dist_sum rd u) !sum) then ok := false
  done;
  !ok

(* Complete network over the points: the rd oracle's what-if kernels
   (detour on removal, insertion relax on addition) vs the dense engine
   on the explicitly built complete graph. *)
let complete_graph_of_points norm pts =
  let n = Array.length pts in
  let g = Wgraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Wgraph.add_edge g u v (Euclidean.dist norm pts.(u) pts.(v))
    done
  done;
  g

let prop_rd_whatif_matches_dense seed =
  let r = Prng.create (seed + 805) in
  let n = 4 + Prng.int r 12 in
  let d = 1 + Prng.int r 3 in
  let norm = norms.(Prng.int r 4) in
  let pts = Euclidean.random_uniform r ~n ~d ~lo:(-5.0) ~hi:5.0 in
  let rd = D.rd (Geometry.pnorm norm) pts in
  let dd = D.dense (complete_graph_of_points norm pts) in
  let ok = ref true in
  for _ = 1 to 8 do
    let s = Prng.int r n in
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then begin
      (* The network is complete, so a bare add only ever happens with
         w >= the existing direct edge (a no-op shortcut); a cheaper link
         is expressed as a reweight: remove + add of the same pair. *)
      let direct = D.distance rd u v in
      let compare_rows ?remove ?add () =
        let a = D.sssp_edited rd ?remove ?add s in
        let b = D.sssp_edited dd ?remove ?add s in
        for x = 0 to n - 1 do
          if not (close a.(x) b.(x)) then ok := false
        done
      in
      compare_rows ~add:(u, v, direct +. Prng.float_in r 0.0 2.0) ();
      compare_rows ~remove:(u, v) ();
      compare_rows ~remove:(u, v) ~add:(u, v, Prng.float_in r 0.1 2.0) ();
      let w = Prng.float_in r 0.1 2.0 in
      if not (close (D.dist_sum_with_edge rd u v w) (D.dist_sum_with_edge dd u v w))
      then ok := false
    end
  done;
  !ok

(* --- the oracle kernels against their Float.min references ---

   Bit for bit, with [Test_flat.sum_min_add] (stdlib [Float.min], the
   kernels' Kahan order) as the insertion-sum reference. *)

let same_bits = Test_flat.same_bits

let insertion_kernels_bitwise r dist n =
  let ok = ref true in
  for _ = 1 to 6 do
    let u = Prng.int r n and v = Prng.int r n in
    let w = Prng.float_in r 0.0 9.0 in
    let row_v = D.row dist v in
    if
      not
        (same_bits (D.dist_sum_with_edge dist u v w)
           (Test_flat.sum_min_add (D.row dist u) w row_v))
    then ok := false;
    let held = Test_flat.held_row r n in
    if not (same_bits (D.min_sum_against dist held v w) (Test_flat.sum_min_add held w row_v))
    then ok := false
  done;
  !ok

(* The rd what-if row and sum after removing (a,b) and adding (u,v,w):
   the removed pair falls back to its best 2-hop detour, then one
   insertion relaxation with [Float.min]. *)
let rd_whatif_reference rd s (a, b) (u, v, w) =
  let n = D.n rd in
  let rm p q =
    if p = q then 0.0
    else if (p = a && q = b) || (p = b && q = a) then begin
      let best = ref Float.infinity in
      for z = 0 to n - 1 do
        if z <> a && z <> b then begin
          let c = D.distance rd a z +. D.distance rd z b in
          if c < !best then best := c
        end
      done;
      !best
    end
    else D.distance rd p q
  in
  let dsu = rm s u and dsv = rm s v in
  Array.init n (fun x ->
      Float.min (rm s x) (Float.min (dsu +. w +. rm v x) (dsv +. w +. rm u x)))

let prop_oracle_kernels_match_float_min seed =
  let r = Prng.create (seed + 808) in
  let n = 3 + Prng.int r 20 in
  let td = D.tree (random_tree r n) in
  let d = 1 + Prng.int r 3 in
  let pts = Euclidean.random_uniform r ~n ~d ~lo:(-5.0) ~hi:5.0 in
  let rd = D.rd (Geometry.pnorm norms.(Prng.int r 4)) pts in
  let whatif_ok = ref true in
  for _ = 1 to 4 do
    let s = Prng.int r n and a = Prng.int r n and u = Prng.int r n in
    let b = (a + 1 + Prng.int r (n - 1)) mod n and v = (u + 1 + Prng.int r (n - 1)) mod n in
    let add = (u, v, Prng.float_in r 0.1 2.0) in
    let expected = rd_whatif_reference rd s (a, b) add in
    let row = D.sssp_edited rd ~remove:(a, b) ~add s in
    if not (Array.for_all2 same_bits row expected) then whatif_ok := false;
    if not (same_bits (D.sssp_edited_sum rd ~remove:(a, b) ~add s) (Flt.sum expected)) then
      whatif_ok := false
  done;
  insertion_kernels_bitwise r td n && insertion_kernels_bitwise r rd n && !whatif_ok

(* The batched insertion sum is the single-target kernel, bit for bit,
   for every k in 0..9 (every remainder mod 4), on each backend; the
   dense graph is often disconnected and some weights are infinite, so
   infinite lanes sit among finite ones.  Entries from k on are left
   alone, and the dense engine counts one add kernel per sum. *)
let prop_batched_sums_match_single seed =
  let r = Prng.create (seed + 809) in
  let n = 2 + Prng.int r 14 in
  let d = 1 + Prng.int r 3 in
  let pts = Euclidean.random_uniform r ~n ~d ~lo:(-5.0) ~hi:5.0 in
  let backends =
    [
      D.dense (Test_flat.random_sparse_graph r n);
      D.tree (random_tree r n);
      D.rd (Geometry.pnorm norms.(Prng.int r 4)) pts;
    ]
  in
  let kernels () =
    match Gncg_obs.Metric.find_counter "incr_apsp.add_kernels" with
    | Some c -> Gncg_obs.Metric.Counter.value c
    | None -> 0
  in
  Gncg_obs.Obs.set_profiling true;
  Fun.protect
    ~finally:(fun () -> Gncg_obs.Obs.set_profiling false)
    (fun () ->
      List.for_all
        (fun dist ->
          List.for_all
            (fun k ->
              let u = Prng.int r n in
              let targets = Array.init (k + 2) (fun _ -> Prng.int r n) in
              let weights =
                Array.init (k + 2) (fun _ ->
                    if Prng.int r 6 = 0 then Float.infinity else Prng.float_in r 0.0 9.0)
              in
              let out = Array.make (k + 2) Float.nan in
              let before = kernels () in
              D.dist_sums_with_edges dist u targets weights k out;
              let counted = kernels () - before in
              (D.backend_id dist <> "dense" || counted = k)
              && List.for_all
                   (fun i ->
                     if i < k then
                       same_bits out.(i) (D.dist_sum_with_edge dist u targets.(i) weights.(i))
                     else Float.is_nan out.(i))
                   (List.init (k + 2) Fun.id))
            (List.init 10 Fun.id))
        backends)

(* --- k-d index vs linear scan --- *)

let prop_kd_nearest_matches_linear seed =
  let r = Prng.create (seed + 807) in
  let n = 3 + Prng.int r 40 in
  let d = 1 + Prng.int r 3 in
  let norm = Geometry.pnorm norms.(Prng.int r 4) in
  let pts = Euclidean.random_uniform r ~n ~d ~lo:(-5.0) ~hi:5.0 in
  let flat = Array.concat (Array.to_list pts) in
  let kd = Kd_tree.build norm ~flat ~d in
  let accept v = v mod 2 = 0 in
  let ok = ref true in
  for u = 0 to n - 1 do
    (match (Kd_tree.nearest kd u, Kd_tree.nearest_linear kd u) with
    | Some (_, dk), Some (_, dl) -> if not (close dk dl) then ok := false
    | None, None -> ()
    | _ -> ok := false);
    match (Kd_tree.nearest kd ~accept u, Kd_tree.nearest_linear kd ~accept u) with
    | Some (vk, dk), Some (vl, dl) ->
      if not (close dk dl) then ok := false;
      if not (accept vk && accept vl && vk <> u && vl <> u) then ok := false
    | None, None -> ()
    | _ -> ok := false
  done;
  !ok

(* --- Net_state backend selection and cost parity --- *)

let tree_state ?backend ?require_mutable () =
  let r = Prng.create 5 in
  let metric, geometry = Random_host.tree_metric r ~n:12 ~wmin:1.0 ~wmax:5.0 in
  let host = Gncg.Host.make ~geometry ~alpha:2.0 metric in
  let tr = match geometry with Geometry.Tree tr -> tr | _ -> assert false in
  let profile = Gncg.Strategy.of_graph_arbitrary_owners (Tree_metric.graph tr) in
  Gncg.Net_state.create ?backend ?require_mutable host profile

let rd_state ?backend () =
  let r = Prng.create 6 in
  let n = 9 in
  let metric, geometry =
    Random_host.euclidean_metric r ~n ~d:2 ~lo:0.0 ~hi:10.0
  in
  let host = Gncg.Host.make ~geometry ~alpha:2.0 metric in
  let complete = Wgraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Wgraph.add_edge complete u v 1.0
    done
  done;
  let profile = Gncg.Strategy.of_graph_arbitrary_owners complete in
  Gncg.Net_state.create ?backend host profile

let test_auto_selection () =
  Alcotest.(check string)
    "tree host + tree network -> tree" "tree"
    (Gncg.Net_state.backend_id (tree_state ()));
  Alcotest.(check string)
    "require_mutable degrades tree to dense" "dense"
    (Gncg.Net_state.backend_id (tree_state ~require_mutable:true ()));
  Alcotest.(check string)
    "points host + complete network -> rd" "rd"
    (Gncg.Net_state.backend_id (rd_state ()));
  Alcotest.(check string)
    "explicit dense overrides auto" "dense"
    (Gncg.Net_state.backend_id (tree_state ~backend:D.Dense ()));
  let r = Prng.create 7 in
  let host =
    Gncg.Host.make ~alpha:2.0 (Random_host.uniform_metric r ~n:8 ~lo:1.0 ~hi:4.0)
  in
  let profile = Instances.random_profile r host in
  Alcotest.(check string)
    "no geometry -> dense" "dense"
    (Gncg.Net_state.backend_id (Gncg.Net_state.create host profile))

let test_cost_parity_across_backends () =
  let dense = tree_state ~backend:D.Dense () in
  let tree = tree_state () in
  Alcotest.(check bool)
    "tree social cost matches dense" true
    (close (Gncg.Net_state.social_cost tree) (Gncg.Net_state.social_cost dense));
  for a = 0 to 11 do
    Alcotest.(check bool)
      (Printf.sprintf "tree agent %d cost matches dense" a)
      true
      (close (Gncg.Net_state.agent_cost tree a) (Gncg.Net_state.agent_cost dense a))
  done;
  (* rd parity on its own complete-network instance. *)
  let rd = rd_state () in
  let dense_rd = rd_state ~backend:D.Dense () in
  Alcotest.(check bool)
    "rd social cost matches dense" true
    (close (Gncg.Net_state.social_cost rd) (Gncg.Net_state.social_cost dense_rd))

let test_best_response_parity () =
  (* The response engine on an oracle-backed state must agree with the
     dense one (same instance, same candidate order). *)
  let a = tree_state () and b = tree_state ~backend:D.Dense () in
  for agent = 0 to 11 do
    let ga = Gncg.Fast_response.move_gains_state a ~agent in
    let gb = Gncg.Fast_response.move_gains_state b ~agent in
    Alcotest.(check int)
      (Printf.sprintf "agent %d gain list lengths" agent)
      (List.length gb) (List.length ga);
    List.iter2
      (fun (ma, va) (mb, vb) ->
        Alcotest.(check bool) "same move" true (ma = mb);
        Alcotest.(check bool) "same gain" true (close va vb))
      ga gb
  done

let test_nearest_index () =
  let rd = rd_state () in
  match D.nearest (Gncg.Net_state.distances rd) 0 with
  | None -> Alcotest.fail "rd state must expose a nearest target"
  | Some (v, w) ->
    Alcotest.(check bool) "target is another vertex" true (v <> 0);
    Alcotest.(check bool) "distance positive" true (w > 0.0);
    let dense = tree_state ~backend:D.Dense () in
    Alcotest.(check bool)
      "dense has no geometric index" true
      (D.nearest (Gncg.Net_state.distances dense) 0 = None)

(* --- sentinel: inject -> detect -> repair, per backend --- *)

let sentinel_case name make_backend oracle =
  ( "sentinel " ^ name,
    `Quick,
    fun () ->
      let d = make_backend () in
      let n = D.n d in
      Alcotest.(check bool) (name ^ " clean probe") true (D.selfcheck_now d);
      D.inject_cell_error d 1 3 0.5;
      let detected = ref false in
      for _ = 1 to n do
        if not (D.selfcheck_now d) then detected := true
      done;
      Alcotest.(check bool) (name ^ " detects injected fault") true !detected;
      Alcotest.(check bool) (name ^ " healed") true (D.selfcheck_now d);
      let reference = oracle () in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if not (close (D.distance d u v) reference.(u).(v)) then ok := false
        done
      done;
      Alcotest.(check bool) (name ^ " matches oracle after repair") true !ok )

let sentinel_tests =
  let n = 12 in
  let graph () = random_tree (Prng.create 21) n in
  let pts () =
    Euclidean.random_uniform (Prng.create 22) ~n ~d:2 ~lo:0.0 ~hi:10.0
  in
  [
    sentinel_case "dense"
      (fun () -> D.dense (graph ()))
      (fun () -> Dijkstra.apsp (graph ()));
    sentinel_case "tree"
      (fun () -> D.tree (graph ()))
      (fun () -> Dijkstra.apsp (graph ()));
    sentinel_case "rd"
      (fun () -> D.rd Pnorm.L2 (pts ()))
      (fun () ->
        Gncg_metric.Metric.to_matrix (Euclidean.metric Euclidean.L2 (pts ())));
  ]

(* --- read-only oracles refuse mutation; Net_state resolution guards --- *)

let test_oracles_are_read_only () =
  let td = D.tree (random_tree (Prng.create 31) 8) in
  let rd =
    D.rd Pnorm.L2 (Euclidean.random_uniform (Prng.create 32) ~n:8 ~d:2 ~lo:0.0 ~hi:1.0)
  in
  List.iter
    (fun (name, d) ->
      Alcotest.(check bool) (name ^ " is read-only") false (D.is_mutable d);
      (try
         ignore (D.add_edge d 0 5 1.0);
         Alcotest.fail (name ^ " add_edge must raise Unsupported")
       with D.Unsupported _ -> ());
      try
        ignore (D.remove_edge d 0 1);
        Alcotest.fail (name ^ " remove_edge must raise Unsupported")
      with D.Unsupported _ -> ())
    [ ("tree", td); ("rd", rd) ]

let test_spec_round_trip () =
  List.iter
    (fun s ->
      match D.spec_of_string s with
      | Ok spec -> Alcotest.(check string) s s (D.spec_to_string spec)
      | Error e -> Alcotest.fail e)
    [ "auto"; "dense"; "tree"; "rd" ];
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (D.spec_of_string "quantum"))

(* --- the memory ceiling: implicit oracles at n = 10^5 ---

   The point of the tree and R^d oracles: they answer n = 10^5 hosts
   (Prng 8: a random tree with weights in [1, 10], then a uniform R^2
   box of side 100) in O(n log n) / O(n d) memory, where a dense store
   would need 8n^2 = 80 GB.  CI runs this case alone under
   `ulimit -v 2097152` (2 GB).  The backend ids are checked at n = 10^3
   first, so a dense fallback fails there instead of allocating 80 GB. *)

let test_oracles_at_1e5 () =
  List.iter
    (fun n ->
      let rng = Prng.create 8 in
      let tree = Random_host.tree_geometry rng ~n ~wmin:1.0 ~wmax:10.0 in
      let points = Random_host.euclidean_geometry rng ~n ~d:2 ~lo:0.0 ~hi:100.0 in
      let finite label x =
        if not (Float.is_finite x) then Alcotest.failf "%s at n = %d: %g" label n x
      in
      List.iter
        (fun (id, geometry) ->
          let d = Geometry.to_distances geometry in
          Alcotest.(check string) (Printf.sprintf "backend at n = %d" n) id (D.backend_id d);
          let mem = D.memory_bytes d in
          if 10 * mem >= 8 * n * n then
            Alcotest.failf "%s at n = %d holds %d bytes, not an implicit oracle" id n mem;
          finite (id ^ " distance") (D.distance d 0 (n - 1));
          finite (id ^ " dist_sum") (D.dist_sum d (n / 2));
          finite (id ^ " dist_sum_with_edge") (D.dist_sum_with_edge d 1 (n - 2) 1.5);
          if id = "rd" then
            match D.nearest d 0 with
            | Some (v, w) -> finite "rd nearest + add kernel" (D.dist_sum_with_edge d 0 v w)
            | None -> Alcotest.failf "rd nearest found nothing at n = %d" n)
        [ ("tree", tree); ("rd", points) ])
    [ 1_000; 100_000 ]

let suites =
  [
    ( "distances-backends",
      [
        qtest "tree oracle = fresh Dijkstra" seed_gen prop_tree_matches_dijkstra;
        qtest "tree kernels = dense kernels" seed_gen prop_tree_kernels_match_dense;
        qtest "tree what-ifs = dense what-ifs" seed_gen prop_tree_whatif_matches_dense;
        qtest "rd oracle = tabulated metric" seed_gen prop_rd_matches_metric;
        qtest "rd what-ifs = dense on complete graph" seed_gen
          prop_rd_whatif_matches_dense;
        qtest "k-d nearest = linear scan" seed_gen prop_kd_nearest_matches_linear;
        qtest "oracle kernels = Float.min, bitwise" seed_gen
          prop_oracle_kernels_match_float_min;
        qtest "batched insertion sums = single" seed_gen prop_batched_sums_match_single;
      ] );
    ( "distances-net-state",
      [
        Alcotest.test_case "auto backend selection" `Quick test_auto_selection;
        Alcotest.test_case "cost parity across backends" `Quick
          test_cost_parity_across_backends;
        Alcotest.test_case "best-response parity tree vs dense" `Quick
          test_best_response_parity;
        Alcotest.test_case "nearest target via k-d index" `Quick test_nearest_index;
        Alcotest.test_case "oracles are read-only" `Quick test_oracles_are_read_only;
        Alcotest.test_case "spec round-trip" `Quick test_spec_round_trip;
      ] );
    ("distances-sentinel", sentinel_tests);
    ( "distances-scaling",
      [ Alcotest.test_case "tree and rd oracles at n = 10^5" `Slow test_oracles_at_1e5 ] );
  ]
