open Helpers
module C = Gncg_constructions
module Prng = Gncg_util.Prng
module Br = Gncg.Best_response

(* --- Set cover substrate -------------------------------------------------- *)

let test_set_cover_make_validation () =
  Alcotest.check_raises "uncovered universe"
    (Invalid_argument "Set_cover.make: subsets do not cover the universe") (fun () ->
      ignore (C.Set_cover.make ~universe:3 [ [ 0 ]; [ 1 ] ]))

let test_set_cover_min () =
  let sc = C.Set_cover.make ~universe:4 [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 2; 3 ] ] in
  let best = C.Set_cover.min_cover sc in
  Alcotest.(check int) "min cover size" 2 (List.length best);
  check_true "is a cover" (C.Set_cover.is_cover sc best)

let test_set_cover_random_valid () =
  let r = rng 800 in
  for _ = 1 to 10 do
    let sc = C.Set_cover.random r ~universe:6 ~nb_subsets:4 in
    check_true "full index set covers"
      (C.Set_cover.is_cover sc (List.init 4 Fun.id))
  done

(* --- Thm 13: tree-metric BR = min set cover ------------------------------- *)

let check_tree_reduction sc =
  let host = C.Setcover_tree.host sc in
  let profile = C.Setcover_tree.profile sc in
  let br, _ = Br.exact host profile C.Setcover_tree.u_agent in
  match C.Setcover_tree.cover_of_strategy sc br with
  | None -> Alcotest.fail "BR bought a non-subset node"
  | Some cover ->
    check_true "BR is a cover" (C.Set_cover.is_cover sc cover);
    Alcotest.(check int) "BR is minimum"
      (List.length (C.Set_cover.min_cover sc))
      (List.length cover)

let test_thm13_fixed_instances () =
  List.iter check_tree_reduction
    [
      C.Set_cover.make ~universe:3 [ [ 0; 1; 2 ] ];
      C.Set_cover.make ~universe:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ];
      C.Set_cover.make ~universe:5 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 0; 1; 2; 3; 4 ] ];
      C.Set_cover.make ~universe:4 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3 ] ];
    ]

let test_thm13_random_instances () =
  let r = rng 801 in
  for _ = 1 to 6 do
    let sc = C.Set_cover.random r ~universe:(3 + Prng.int r 3) ~nb_subsets:(2 + Prng.int r 3) in
    check_tree_reduction sc
  done

let test_thm13_host_is_tree_metric () =
  let sc = C.Set_cover.make ~universe:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let host = C.Setcover_tree.host sc in
  check_true "metric" (Gncg_metric.Metric.is_metric (Gncg.Host.metric host))

let test_thm13_parameter_guards () =
  let sc = C.Set_cover.make ~universe:3 [ [ 0; 1; 2 ] ] in
  Alcotest.check_raises "beta too small" (Invalid_argument "Setcover_tree: need beta > 2*k*eps")
    (fun () ->
      ignore
        (C.Setcover_tree.host
           ~params:{ C.Setcover_tree.big_l = 100.0; eps = 0.2; beta = 0.5 }
           sc))

(* --- Thm 16: geometric BR = min set cover --------------------------------- *)

let check_rd_reduction ?norm sc =
  let host = C.Setcover_rd.host ?norm sc in
  let profile = C.Setcover_rd.profile sc in
  let br, _ = Br.exact host profile C.Setcover_rd.u_agent in
  match C.Setcover_rd.cover_of_strategy sc br with
  | None -> Alcotest.fail "BR bought a non-subset node"
  | Some cover ->
    check_true "BR is a cover" (C.Set_cover.is_cover sc cover);
    Alcotest.(check int) "BR is minimum"
      (List.length (C.Set_cover.min_cover sc))
      (List.length cover)

let test_thm16_fixed_instances () =
  List.iter check_rd_reduction
    [
      C.Set_cover.make ~universe:3 [ [ 0; 1; 2 ] ];
      C.Set_cover.make ~universe:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ];
      C.Set_cover.make ~universe:4 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3 ] ];
    ]

let test_thm16_random_instances () =
  let r = rng 802 in
  for _ = 1 to 6 do
    let sc = C.Set_cover.random r ~universe:(3 + Prng.int r 3) ~nb_subsets:(2 + Prng.int r 3) in
    check_rd_reduction sc
  done

let test_thm16_other_norms () =
  (* Thm 16 claims the reduction for any p-norm. *)
  let sc = C.Set_cover.make ~universe:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ] in
  check_rd_reduction ~norm:Gncg_metric.Euclidean.L1 sc;
  check_rd_reduction ~norm:(Gncg_metric.Euclidean.Lp 3.0) sc;
  check_rd_reduction ~norm:Gncg_metric.Euclidean.Linf sc

let test_thm16_geometry () =
  (* The blockers must sit opposite the subset nodes: d(b_i, a_i) =
     (L-beta)/2 + L. *)
  let sc = C.Set_cover.make ~universe:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let host = C.Setcover_rd.host sc in
  let p = C.Setcover_rd.default_params in
  let expected = ((p.C.Setcover_rd.big_l -. p.C.Setcover_rd.beta) /. 2.0) +. p.C.Setcover_rd.big_l in
  check_float ~tol:1e-6 "blocker distance" expected
    (Gncg.Host.weight host (C.Setcover_rd.blocker_node sc 0) (C.Setcover_rd.subset_node sc 0))

(* --- Thm 4: VC reduction --------------------------------------------------- *)

let triangle = { C.Vc_reduction.nv = 3; es = [ (0, 1); (1, 2); (2, 0) ] }

let path4 = { C.Vc_reduction.nv = 4; es = [ (0, 1); (1, 2); (2, 3) ] }

let star4 = { C.Vc_reduction.nv = 4; es = [ (0, 1); (0, 2); (0, 3) ] }

let test_vc_brute_force () =
  Alcotest.(check int) "triangle VC=2" 2 (List.length (C.Vc_reduction.min_vertex_cover triangle));
  Alcotest.(check int) "path4 VC=2" 2 (List.length (C.Vc_reduction.min_vertex_cover path4));
  Alcotest.(check int) "star4 VC=1" 1 (List.length (C.Vc_reduction.min_vertex_cover star4))

let test_vc_host_is_one_two () =
  let host = C.Vc_reduction.host path4 in
  check_true "1-2 host" (Gncg_metric.One_two.is_one_two (Gncg.Host.metric host));
  check_float "alpha = 1" 1.0 (Gncg.Host.alpha host)

let test_vc_u_br_is_min_cover_cost () =
  List.iter
    (fun inst ->
      let host = C.Vc_reduction.host inst in
      let kmin = List.length (C.Vc_reduction.min_vertex_cover inst) in
      (* Start u from any (possibly non-minimal) cover. *)
      let full_cover = List.init inst.C.Vc_reduction.nv Fun.id in
      let profile = C.Vc_reduction.profile inst ~cover:full_cover in
      let _, br_cost = Br.exact host profile (C.Vc_reduction.u_agent inst) in
      check_float ~tol:1e-6 "BR cost = 3N + 6m + k_min"
        (C.Vc_reduction.u_cost_formula inst ~cover_size:kmin)
        br_cost)
    [ triangle; path4; star4 ]

let test_vc_ne_iff_minimal () =
  List.iter
    (fun inst ->
      let host = C.Vc_reduction.host inst in
      let kmin = List.length (C.Vc_reduction.min_vertex_cover inst) in
      let minimal = C.Vc_reduction.min_vertex_cover inst in
      check_true "minimal cover profile is NE"
        (Gncg.Equilibrium.is_ne host (C.Vc_reduction.profile inst ~cover:minimal));
      (* A strictly larger cover cannot be a NE for u. *)
      let full = List.init inst.C.Vc_reduction.nv Fun.id in
      if List.length full > kmin then
        check_false "oversized cover profile is not NE"
          (Gncg.Equilibrium.is_ne host (C.Vc_reduction.profile inst ~cover:full)))
    [ triangle; path4; star4 ]

let test_vc_random_instances () =
  let r = rng 803 in
  for _ = 1 to 4 do
    let nv = 3 + Prng.int r 2 in
    (* Random subcubic-ish edge set. *)
    let es = ref [] in
    for a = 0 to nv - 1 do
      for b = a + 1 to nv - 1 do
        if Prng.coin r 0.5 then es := (a, b) :: !es
      done
    done;
    if !es <> [] then begin
      let inst = { C.Vc_reduction.nv; es = !es } in
      let host = C.Vc_reduction.host inst in
      let kmin = List.length (C.Vc_reduction.min_vertex_cover inst) in
      let full = List.init nv Fun.id in
      let profile = C.Vc_reduction.profile inst ~cover:full in
      let _, br_cost = Br.exact host profile (C.Vc_reduction.u_agent inst) in
      check_float ~tol:1e-6 "BR cost formula"
        (C.Vc_reduction.u_cost_formula inst ~cover_size:kmin)
        br_cost
    end
  done

let suites =
  [
    ( "reductions.set-cover",
      [
        case "validation" test_set_cover_make_validation;
        case "brute-force min" test_set_cover_min;
        case "random instances valid" test_set_cover_random_valid;
      ] );
    ( "reductions.thm13-tree",
      [
        case "fixed instances" test_thm13_fixed_instances;
        slow_case "random instances" test_thm13_random_instances;
        case "host is metric" test_thm13_host_is_tree_metric;
        case "parameter guards" test_thm13_parameter_guards;
      ] );
    ( "reductions.thm16-geometric",
      [
        case "fixed instances" test_thm16_fixed_instances;
        slow_case "random instances" test_thm16_random_instances;
        case "other p-norms" test_thm16_other_norms;
        case "blocker geometry" test_thm16_geometry;
      ] );
    ( "reductions.thm4-vertex-cover",
      [
        case "brute force VC" test_vc_brute_force;
        case "host shape" test_vc_host_is_one_two;
        case "u's BR cost = min cover" test_vc_u_br_is_min_cover_cost;
        slow_case "NE iff minimal" test_vc_ne_iff_minimal;
        slow_case "random instances" test_vc_random_instances;
      ] );
  ]
