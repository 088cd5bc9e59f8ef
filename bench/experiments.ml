(* The reproduction harness: one experiment per table/figure of the paper.
   Each [eN_*] function prints the series the paper reports; EXPERIMENTS.md
   records the comparison against the published claims. *)

module T = Gncg_util.Tablefmt
module Prng = Gncg_util.Prng
module C = Gncg_constructions
module W = Gncg_workload

let section id title =
  Printf.printf "\n=== %s — %s ===\n" id title

let engine_ratio host ne_profile opt_network =
  Gncg.Cost.social_cost host ne_profile
  /. Gncg.Cost.network_social_cost host opt_network

(* ------------------------------------------------------------------ E1 *)

let e1_poa_onetwo_small_alpha () =
  section "E1" "1-2-GNCG, alpha < 1/2: PoA = 1 (Thm 9)";
  print_endline "Best-response dynamics vs Algorithm 1 optimum on random 1-2 hosts.";
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          let ratios = ref [] and conv = ref 0 and total = ref 0 in
          for seed = 1 to 5 do
            incr total;
            let r = Prng.create ((1000 * n) + seed) in
            let host = Gncg.Host.make ~alpha (Gncg_metric.One_two.random r ~n ~p_one:0.5) in
            let start = W.Instances.random_profile r host in
            match
              Gncg.Dynamics.run
                (Gncg.Dynamics.Config.make ~max_steps:800 Gncg.Dynamics.Best_response
                   Gncg.Dynamics.Round_robin)
                host start
            with
            | Gncg.Dynamics.Converged { profile; _ } ->
              incr conv;
              let _, opt = Gncg.Social_optimum.algorithm_one host in
              ratios := (Gncg.Cost.social_cost host profile /. opt) :: !ratios
            | _ -> ()
          done;
          let worst = List.fold_left Float.max 0.0 !ratios in
          rows :=
            [
              string_of_int n;
              T.fl ~digits:2 alpha;
              Printf.sprintf "%d/%d" !conv !total;
              T.fl ~digits:6 worst;
              "1.000000";
            ]
            :: !rows)
        [ 0.2; 0.4 ])
    [ 6; 8; 10 ];
  T.print ~header:[ "n"; "alpha"; "converged"; "worst NE/OPT"; "paper" ] (List.rev !rows)

(* ------------------------------------------------------------------ E2 *)

let e2_poa_onetwo_fig3 () =
  section "E2" "1-2-GNCG lower bound (Thm 7+8, Fig 3)";
  print_endline "Star-of-stars construction: NE/OPT ratio approaches the bound as N grows.";
  let rows = ref [] in
  let do_variant variant alpha =
    List.iter
      (fun nb ->
        let host = C.Thm8_onetwo.host variant ~alpha ~nb_centers:nb ~nb_leaves:nb in
        let ne = C.Thm8_onetwo.ne_profile variant ~nb_centers:nb ~nb_leaves:nb in
        let ne_cost = Gncg.Cost.social_cost host ne in
        (* alpha = 1: the 1-edge subgraph is optimal.  alpha in [1/2,1):
           the paper upper-bounds OPT by the complete host graph. *)
        let opt_cost =
          match variant with
          | C.Thm8_onetwo.Alpha_one ->
            Gncg.Cost.network_social_cost host
              (C.Thm8_onetwo.opt_network variant ~nb_centers:nb ~nb_leaves:nb)
          | C.Thm8_onetwo.Alpha_mid -> Gncg.Social_optimum.complete_host_cost host
        in
        let stable =
          if nb <= 3 then string_of_bool (Gncg.Equilibrium.is_ge host ne) else "(assumed)"
        in
        rows :=
          [
            (match variant with C.Thm8_onetwo.Alpha_one -> "alpha=1" | _ -> "alpha=" ^ T.fl ~digits:2 alpha);
            string_of_int nb;
            string_of_int (C.Thm8_onetwo.size ~nb_centers:nb ~nb_leaves:nb);
            T.fl ~digits:4 (ne_cost /. opt_cost);
            T.fl ~digits:4 (C.Thm8_onetwo.expected_ratio_limit variant ~alpha);
            stable;
          ]
          :: !rows)
      [ 2; 3; 5; 8; 12 ]
  in
  do_variant C.Thm8_onetwo.Alpha_one 1.0;
  do_variant C.Thm8_onetwo.Alpha_mid 0.5;
  do_variant C.Thm8_onetwo.Alpha_mid 0.75;
  T.print
    ~header:[ "variant"; "N"; "agents"; "NE/OPT"; "limit"; "greedy-stable" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ E3 *)

let e3_onetwo_large_alpha () =
  section "E3" "1-2-GNCG, alpha > 1: stars are NE (Thm 10); NE diameter is O(sqrt(alpha)) (Thm 11)";
  let rows = ref [] in
  List.iter
    (fun alpha ->
      (* Star stability (exact NE check at n=8). *)
      let r = Prng.create (int_of_float (alpha *. 100.0)) in
      let host = Gncg.Host.make ~alpha (Gncg_metric.One_two.random r ~n:8 ~p_one:0.5) in
      let star_ne =
        if alpha >= 3.0 then
          string_of_bool (Gncg.Equilibrium.is_ne host (Gncg.Strategy.star 8 ~center:0))
        else "n/a"
      in
      (* Diameter of dynamics equilibria on larger hosts. *)
      let diams = ref [] in
      for seed = 1 to 4 do
        let r = Prng.create (seed + int_of_float alpha) in
        let host =
          Gncg.Host.make ~alpha (Gncg_metric.One_two.random r ~n:24 ~p_one:0.3)
        in
        let start = W.Instances.random_profile r host in
        match
          Gncg.Dynamics.run
            (Gncg.Dynamics.Config.make ~max_steps:4000 Gncg.Dynamics.Greedy_response
               Gncg.Dynamics.Round_robin)
            host start
        with
        | Gncg.Dynamics.Converged { profile; _ } ->
          diams := Gncg.Network.diameter host profile :: !diams
        | _ -> ()
      done;
      let max_diam = List.fold_left Float.max 0.0 !diams in
      rows :=
        [
          T.fl ~digits:1 alpha;
          star_ne;
          T.fl ~digits:1 max_diam;
          T.fl ~digits:2 (sqrt alpha);
          T.fl ~digits:2 (max_diam /. sqrt alpha);
        ]
        :: !rows)
    [ 3.0; 4.0; 9.0; 16.0; 25.0 ];
  T.print
    ~header:[ "alpha"; "star is NE"; "max GE diameter"; "sqrt(alpha)"; "diam/sqrt" ]
    (List.rev !rows);
  print_endline "(Thm 11 predicts diameter <= c*sqrt(alpha): the last column stays bounded.)"

(* ------------------------------------------------------------------ E4 *)

let e4_poa_tree_fig6 () =
  section "E4" "Tree metrics: PoA = (alpha+2)/2 is tight (Thm 15 + Thm 1, Fig 6)";
  let rows = ref [] in
  List.iter
    (fun alpha ->
      List.iter
        (fun n ->
          let host = C.Thm15_tree_star.host ~alpha ~n in
          let ne = C.Thm15_tree_star.ne_profile ~alpha ~n in
          let opt = C.Thm15_tree_star.opt_network ~alpha ~n in
          let ratio = engine_ratio host ne opt in
          let verified =
            if n <= 7 then string_of_bool (Gncg.Equilibrium.is_ne host ne)
            else if n <= 64 then string_of_bool (Gncg.Equilibrium.is_ge host ne)
            else "(formula)"
          in
          rows :=
            [
              T.fl ~digits:2 alpha;
              string_of_int n;
              T.fl ~digits:4 ratio;
              T.fl ~digits:4 (C.Thm15_tree_star.ratio_limit ~alpha);
              verified;
            ]
            :: !rows)
        [ 6; 16; 64; 256 ])
    [ 1.0; 2.0; 4.0; 8.0 ];
  T.print ~header:[ "alpha"; "n"; "NE/OPT"; "(a+2)/2"; "NE verified" ] (List.rev !rows)

(* ------------------------------------------------------------------ E5 *)

let e5_tree_ne_structure () =
  section "E5" "Tree metrics: equilibria are trees; T itself is NE and OPT (Thm 12, Cor 3)";
  let total = ref 0 and trees = ref 0 and at_opt = ref 0 in
  let ratios = ref [] in
  for seed = 1 to 12 do
    let r = Prng.create (7000 + seed) in
    let tree = Gncg_metric.Tree_metric.random r ~n:7 ~wmin:1.0 ~wmax:5.0 in
    let alpha = 0.5 +. Prng.float r 4.0 in
    let host = Gncg.Host.make ~alpha (Gncg_metric.Tree_metric.metric tree) in
    let start = W.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
        (Gncg.Dynamics.Config.make ~max_steps:600 Gncg.Dynamics.Best_response
           Gncg.Dynamics.Round_robin)
        host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      incr total;
      let g = Gncg.Network.graph host profile in
      if Gncg_graph.Connectivity.is_tree g then incr trees;
      let _, opt = Gncg.Social_optimum.tree_optimum tree host in
      let ratio = Gncg.Cost.social_cost host profile /. opt in
      ratios := ratio :: !ratios;
      if Gncg_util.Flt.approx_eq ~tol:1e-6 ratio 1.0 then incr at_opt
    | _ -> ()
  done;
  Printf.printf "converged runs: %d; trees: %d/%d (paper: all); at optimum cost: %d/%d\n"
    !total !trees !total !at_opt !total;
  Printf.printf "NE/OPT ratios: mean %.4f, worst %.4f (upper bound (a+2)/2)\n"
    (Gncg_util.Stats.mean !ratios)
    (List.fold_left Float.max 0.0 !ratios)

(* ------------------------------------------------------------------ E6 *)

let e6_poa_line_fig9 () =
  section "E6" "Points on a line: PoA > 1 (Lemma 8, Fig 9)";
  let rows = ref [] in
  List.iter
    (fun alpha ->
      List.iter
        (fun n ->
          let host = C.Lemma8_path.host ~alpha ~n in
          let ne = C.Lemma8_path.ne_profile ~alpha ~n in
          let opt = C.Lemma8_path.opt_network ~alpha ~n in
          let ratio = engine_ratio host ne opt in
          let verified =
            if n <= 6 then string_of_bool (Gncg.Equilibrium.is_ne host ne) else "(lemma)"
          in
          rows :=
            [ T.fl ~digits:2 alpha; string_of_int (n + 1); T.fl ~digits:4 ratio; verified ]
            :: !rows)
        [ 3; 6; 10 ])
    [ 1.0; 2.0; 4.0 ];
  T.print ~header:[ "alpha"; "points"; "star/path cost"; "NE verified" ] (List.rev !rows);
  print_endline "(Lemma 8: every row stays strictly above 1.)"

(* ------------------------------------------------------------------ E7 *)

let e7_poa_fourpoint () =
  section "E7" "Four collinear points (Thm 18): PoA >= cubic rational in alpha";
  let rows =
    List.map
      (fun alpha ->
        let host = C.Thm18_fourpoint.host ~alpha in
        let ne = C.Thm18_fourpoint.ne_profile ~alpha in
        let opt = C.Thm18_fourpoint.opt_network ~alpha in
        [
          T.fl ~digits:2 alpha;
          T.fl ~digits:5 (engine_ratio host ne opt);
          T.fl ~digits:5 (C.Thm18_fourpoint.ratio_formula ~alpha);
          string_of_bool (Gncg.Equilibrium.is_ne host ne);
        ])
      [ 0.5; 1.0; 2.0; 4.0; 8.0; 32.0 ]
  in
  T.print ~header:[ "alpha"; "measured"; "closed form"; "NE verified" ] rows;
  print_endline "(The bound tends to 3 as alpha grows.)"

(* ------------------------------------------------------------------ E8 *)

let e8_poa_cross_fig10 () =
  section "E8" "l1 cross in R^d (Thm 19, Fig 10): PoA >= 1 + a/(2 + a/(2d-1))";
  let rows = ref [] in
  List.iter
    (fun alpha ->
      List.iter
        (fun d ->
          let formula = C.Thm19_cross.ratio_formula ~alpha ~d in
          let measured, verified =
            if d <= 8 then begin
              let host = C.Thm19_cross.host ~alpha ~d in
              let ne = C.Thm19_cross.ne_profile ~alpha ~d in
              let opt = C.Thm19_cross.opt_network ~alpha ~d in
              let v =
                if d <= 3 then string_of_bool (Gncg.Equilibrium.is_ne host ne)
                else string_of_bool (Gncg.Equilibrium.is_ge host ne)
              in
              (T.fl ~digits:4 (engine_ratio host ne opt), v)
            end
            else ("(formula)", "-")
          in
          rows :=
            [
              T.fl ~digits:1 alpha;
              string_of_int d;
              string_of_int ((2 * d) + 1);
              measured;
              T.fl ~digits:4 formula;
              T.fl ~digits:4 (Gncg.Quality.metric_upper alpha);
              verified;
            ]
            :: !rows)
        [ 1; 2; 4; 8; 16; 64 ])
    [ 2.0; 8.0 ];
  T.print
    ~header:[ "alpha"; "d"; "agents"; "measured"; "formula"; "(a+2)/2"; "verified" ]
    (List.rev !rows);
  print_endline "(The bound climbs towards the metric upper bound as d grows.)"

(* ------------------------------------------------------------------ E9 *)

let e9_general_gap () =
  section "E9" "General weights (Thm 20): per-pair bound ((a+2)/2)^2 vs actual ratio";
  let rows =
    List.map
      (fun alpha ->
        let ne_ok =
          match C.Thm20_cycle.ne_profile ~alpha with
          | Some s -> Gncg.Equilibrium.is_ne (C.Thm20_cycle.host ~alpha) s
          | None -> false
        in
        [
          T.fl ~digits:2 alpha;
          T.fl ~digits:4 (C.Thm20_cycle.cost_ratio ~alpha);
          T.fl ~digits:4 (Gncg.Quality.metric_upper alpha);
          T.fl ~digits:4 (C.Thm20_cycle.sigma_heavy_pair ~alpha);
          string_of_bool ne_ok;
        ])
      [ 0.5; 1.0; 2.0; 4.0; 8.0 ]
  in
  T.print
    ~header:[ "alpha"; "NE/OPT"; "(a+2)/2"; "sigma pair"; "NE verified" ]
    rows;
  print_endline
    "(The actual ratio matches the conjectured (a+2)/2 while the per-pair\n\
    \ accounting of Thm 20 is quadratically weaker — Conjecture 2.)"

(* ----------------------------------------------------------------- E10 *)

let e10_fip_violation () =
  section "E10" "No finite improvement property (Thms 14 & 17, Figs 5 & 8)";
  (* (a) Stored witnesses found by offline search — instances matching the
     paper's figures — validated move by move. *)
  let tree_host, tree_cycle = C.Brcycle.fig5_like_instance () in
  Printf.printf
    "Fig 5-style tree metric (weights {3,7,2,5,12,9,11,2,10}, alpha=2):\n\
    \  improving cycle of %d moves; certificate valid: %b\n"
    (List.length tree_cycle - 1)
    (C.Brcycle.verify_cycle tree_host tree_cycle);
  let f8_host, f8_cycle = C.Brcycle.fig8_cycle () in
  Printf.printf
    "Fig 8 point set (1-norm, alpha=1):\n\
    \  improving cycle of %d moves; certificate valid: %b\n"
    (List.length f8_cycle - 1)
    (C.Brcycle.verify_cycle f8_host f8_cycle);
  (* (b) Live search: improving-response dynamics on the Fig 8 host must
     also rediscover a cycle. *)
  (match
     C.Brcycle.search_host ~tries:150 ~max_steps:1500 (Prng.create 998)
       (C.Brcycle.fig8_host ~alpha:1.0)
   with
  | Some f ->
    Printf.printf
      "Live search on Fig 8 host: cycle of %d moves rediscovered; verified: %b\n"
      (List.length f.cycle - 1)
      (C.Brcycle.verify_cycle f.host f.cycle)
  | None -> print_endline "Live search on Fig 8 host: no cycle within this budget.");
  (* (c) Live search on random l1 point sets (Thm 17 beyond the figure). *)
  match
    C.Brcycle.search_generated ~tries:60 ~max_steps:800
      ~host_gen:(fun r ->
        let pts = Gncg_metric.Euclidean.random_uniform r ~n:8 ~d:2 ~lo:0.0 ~hi:5.0 in
        Gncg.Host.make ~alpha:(0.5 +. Prng.float r 2.5)
          (Gncg_metric.Euclidean.metric L1 pts))
      (Prng.create 16)
  with
  | Some f ->
    Printf.printf "Random l1 points: improving cycle of %d moves found; verified: %b\n"
      (List.length f.cycle - 1)
      (C.Brcycle.verify_cycle f.host f.cycle)
  | None -> print_endline "Random l1 points: no improving cycle found in this budget."

(* ----------------------------------------------------------------- E11 *)

let e11_vc_reduction () =
  section "E11" "NE decision is NP-hard: vertex-cover reduction (Thm 4, Fig 2)";
  let instances =
    [
      ("triangle", { C.Vc_reduction.nv = 3; es = [ (0, 1); (1, 2); (2, 0) ] });
      ("path-4", { C.Vc_reduction.nv = 4; es = [ (0, 1); (1, 2); (2, 3) ] });
      ("star-4", { C.Vc_reduction.nv = 4; es = [ (0, 1); (0, 2); (0, 3) ] });
      ("cycle-5", { C.Vc_reduction.nv = 5; es = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] });
    ]
  in
  let rows =
    List.map
      (fun (name, inst) ->
        let host = C.Vc_reduction.host inst in
        let kmin = List.length (C.Vc_reduction.min_vertex_cover inst) in
        let full = List.init inst.C.Vc_reduction.nv Fun.id in
        let profile = C.Vc_reduction.profile inst ~cover:full in
        let _, br = Gncg.Best_response.exact host profile (C.Vc_reduction.u_agent inst) in
        let minimal = C.Vc_reduction.profile inst ~cover:(C.Vc_reduction.min_vertex_cover inst) in
        [
          name;
          string_of_int (C.Vc_reduction.game_size inst);
          string_of_int kmin;
          T.fl ~digits:1 br;
          T.fl ~digits:1 (C.Vc_reduction.u_cost_formula inst ~cover_size:kmin);
          string_of_bool (Gncg.Equilibrium.is_ne host minimal);
        ])
      instances
  in
  T.print
    ~align:[ T.Left ]
    ~header:[ "instance"; "agents"; "min VC"; "u BR cost"; "3N+6m+k"; "min profile NE" ]
    rows

(* ----------------------------------------------------------------- E12 *)

let e12_setcover_br () =
  section "E12" "Best response is NP-hard: set-cover reductions (Thm 13 Fig 4; Thm 16 Fig 7)";
  let rng = Prng.create 77 in
  let rows = ref [] in
  for i = 1 to 5 do
    let sc = C.Set_cover.random rng ~universe:(3 + Prng.int rng 3) ~nb_subsets:(3 + Prng.int rng 2) in
    let kmin = List.length (C.Set_cover.min_cover sc) in
    let tree_size =
      let host = C.Setcover_tree.host sc in
      let br, _ = Gncg.Best_response.exact host (C.Setcover_tree.profile sc) C.Setcover_tree.u_agent in
      match C.Setcover_tree.cover_of_strategy sc br with
      | Some cover when C.Set_cover.is_cover sc cover -> string_of_int (List.length cover)
      | _ -> "INVALID"
    in
    let rd_size =
      let host = C.Setcover_rd.host sc in
      let br, _ = Gncg.Best_response.exact host (C.Setcover_rd.profile sc) C.Setcover_rd.u_agent in
      match C.Setcover_rd.cover_of_strategy sc br with
      | Some cover when C.Set_cover.is_cover sc cover -> string_of_int (List.length cover)
      | _ -> "INVALID"
    in
    rows :=
      [
        Printf.sprintf "random-%d" i;
        string_of_int sc.C.Set_cover.universe;
        string_of_int (Array.length sc.C.Set_cover.subsets);
        string_of_int kmin;
        tree_size;
        rd_size;
      ]
      :: !rows
  done;
  T.print
    ~align:[ T.Left ]
    ~header:[ "instance"; "elements"; "subsets"; "min cover"; "tree BR"; "R^2 BR" ]
    (List.rev !rows);
  print_endline "(Both reductions: the exact best response buys exactly a minimum cover.)"

(* ----------------------------------------------------------------- E13 *)

let e13_metric_upper_bound () =
  section "E13" "Thm 1: every metric Nash equilibrium within (alpha+2)/2 of OPT";
  let rows = ref [] in
  List.iter
    (fun model ->
      let worst = ref 0.0 and count = ref 0 in
      for seed = 1 to 8 do
        let r = Prng.create (9000 + seed) in
        let alpha = 0.5 +. Prng.float r 4.0 in
        let host = W.Instances.random_host r model ~n:6 ~alpha in
        let start = W.Instances.random_profile r host in
        match
          Gncg.Dynamics.run
            (Gncg.Dynamics.Config.make ~max_steps:400 Gncg.Dynamics.Best_response
               Gncg.Dynamics.Round_robin)
            host start
        with
        | Gncg.Dynamics.Converged { profile; _ } ->
          incr count;
          let _, opt = Gncg.Social_optimum.best_known host in
          let margin =
            Gncg.Cost.social_cost host profile /. opt /. Gncg.Quality.metric_upper alpha
          in
          worst := Float.max !worst margin
        | _ -> ()
      done;
      rows :=
        [
          W.Instances.model_name model;
          string_of_int !count;
          T.fl ~digits:4 !worst;
        ]
        :: !rows)
    [
      W.Instances.One_two { p_one = 0.4 };
      W.Instances.Tree { wmin = 1.0; wmax = 10.0 };
      W.Instances.Euclid { norm = L2; d = 2; box = 100.0 };
      W.Instances.Graph_metric { p = 0.3; wmin = 1.0; wmax = 10.0 };
    ];
  T.print
    ~align:[ T.Left ]
    ~header:[ "model"; "NE found"; "worst ratio/bound (must be <= 1)" ]
    (List.rev !rows)

(* ----------------------------------------------------------------- E14 *)

let e14_approx_ne () =
  section "E14" "Approximate equilibria (Thm 2, Thm 3, Cor 2)";
  print_endline
    "Add-only equilibria from dynamics: measured approximation factors vs bounds.";
  let rows = ref [] in
  for seed = 1 to 8 do
    let r = Prng.create (11_000 + seed) in
    let alpha = 0.5 +. Prng.float r 3.0 in
    let host =
      Gncg.Host.make ~alpha
        (Gncg_metric.Random_host.uniform_metric r ~n:6 ~lo:1.0 ~hi:6.0)
    in
    let start = W.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
        (Gncg.Dynamics.Config.make ~max_steps:2000 Gncg.Dynamics.Add_only
           Gncg.Dynamics.Round_robin)
        host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      let ge = Gncg.Equilibrium.approx_factor Gncg.Equilibrium.GE host profile in
      let ne = Gncg.Equilibrium.approx_factor Gncg.Equilibrium.NE host profile in
      rows :=
        [
          string_of_int seed;
          T.fl ~digits:2 alpha;
          T.fl ~digits:3 ge;
          T.fl ~digits:3 (Gncg.Quality.ae_ge_factor alpha);
          T.fl ~digits:3 ne;
          T.fl ~digits:3 (Gncg.Quality.ae_ne_factor alpha);
        ]
        :: !rows
    | _ -> ()
  done;
  T.print
    ~header:[ "seed"; "alpha"; "GE factor"; "a+1"; "NE factor"; "3(a+1)" ]
    (List.rev !rows)

(* ----------------------------------------------------------------- E15 *)

let e15_spanner_lemmas () =
  section "E15" "Spanner lemmas: AE is an (a+1)-spanner; OPT is an (a/2+1)-spanner";
  let rows = ref [] in
  for seed = 1 to 8 do
    let r = Prng.create (12_000 + seed) in
    let alpha = 0.5 +. Prng.float r 4.0 in
    let host =
      Gncg.Host.make ~alpha
        (Gncg_metric.Random_host.uniform_metric r ~n:6 ~lo:1.0 ~hi:6.0)
    in
    let start = W.Instances.random_profile r host in
    match
      Gncg.Dynamics.run
        (Gncg.Dynamics.Config.make ~max_steps:2000 Gncg.Dynamics.Add_only
           Gncg.Dynamics.Round_robin)
        host start
    with
    | Gncg.Dynamics.Converged { profile; _ } ->
      let ae_stretch = Gncg.Quality.host_stretch host (Gncg.Network.graph host profile) in
      let opt_g, _ = Gncg.Social_optimum.exact_small host in
      let opt_stretch = Gncg.Quality.host_stretch host opt_g in
      rows :=
        [
          string_of_int seed;
          T.fl ~digits:2 alpha;
          T.fl ~digits:3 ae_stretch;
          T.fl ~digits:3 (Gncg.Quality.ae_spanner_stretch alpha);
          T.fl ~digits:3 opt_stretch;
          T.fl ~digits:3 (Gncg.Quality.opt_spanner_stretch alpha);
        ]
        :: !rows
    | _ -> ()
  done;
  T.print
    ~header:[ "seed"; "alpha"; "AE stretch"; "a+1"; "OPT stretch"; "a/2+1" ]
    (List.rev !rows)

(* ----------------------------------------------------------------- E16 *)

let e16_spanner_nash () =
  section "E16" "1-2 hosts: spanner equilibria and Algorithm 1 (Thm 5, Thm 6)";
  let rows = ref [] in
  for seed = 1 to 6 do
    let r = Prng.create (13_000 + seed) in
    let alpha = 0.5 +. Prng.float r 0.5 in
    let host = Gncg.Host.make ~alpha (Gncg_metric.One_two.random r ~n:5 ~p_one:0.5) in
    let spanner = Gncg.Spanner_nash.min_weight_spanner_exact host in
    let has_ne =
      if Gncg_graph.Wgraph.m spanner <= 10 then
        match Gncg.Spanner_nash.nash_ownership host spanner with
        | Some _ -> "yes"
        | None -> "NO"
      else "(skipped)"
    in
    let _, alg1 = Gncg.Social_optimum.algorithm_one host in
    let _, exact = Gncg.Social_optimum.exact_small host in
    rows :=
      [
        string_of_int seed;
        T.fl ~digits:2 alpha;
        string_of_int (Gncg_graph.Wgraph.m spanner);
        has_ne;
        T.fl ~digits:2 alg1;
        T.fl ~digits:2 exact;
        string_of_bool (Gncg_util.Flt.approx_eq ~tol:1e-6 alg1 exact);
      ]
      :: !rows
  done;
  T.print
    ~header:
      [ "seed"; "alpha"; "spanner edges"; "NE ownership"; "Alg 1"; "exact OPT"; "optimal" ]
    (List.rev !rows)

(* ----------------------------------------------------------------- E17 *)

let e17_price_of_stability () =
  section "E17" "Price of Stability (paper's open problem, Sec. 5)";
  print_endline "Exhaustive equilibrium enumeration on 5-agent hosts:";
  let rows = ref [] in
  List.iter
    (fun (name, model) ->
      for seed = 1 to 3 do
        let r = Prng.create (14_000 + seed) in
        let alpha = 0.5 +. Prng.float r 3.0 in
        let host = W.Instances.random_host r model ~n:5 ~alpha in
        match Gncg.Price_of_stability.exact ~max_pairs:10 host with
        | Some s ->
          rows :=
            [
              name;
              T.fl ~digits:2 alpha;
              string_of_int s.Gncg.Price_of_stability.ne_count;
              T.fl ~digits:4 (s.Gncg.Price_of_stability.best_ne_cost /. s.Gncg.Price_of_stability.opt_cost);
              T.fl ~digits:4 (s.Gncg.Price_of_stability.worst_ne_cost /. s.Gncg.Price_of_stability.opt_cost);
              T.fl ~digits:4 (Gncg.Quality.metric_upper alpha);
            ]
            :: !rows
        | None ->
          rows := [ name; T.fl ~digits:2 alpha; "0"; "-"; "-"; "-" ] :: !rows
      done)
    [
      ("1-2", W.Instances.One_two { p_one = 0.4 });
      ("tree", W.Instances.Tree { wmin = 1.0; wmax = 10.0 });
      ("euclid", W.Instances.Euclid { norm = L2; d = 2; box = 100.0 });
      ("general", W.Instances.General { lo = 1.0; hi = 10.0 });
    ];
  T.print
    ~align:[ T.Left ]
    ~header:[ "model"; "alpha"; "#NE"; "PoS"; "PoA(n=5)"; "(a+2)/2" ]
    (List.rev !rows);
  print_endline "\nCoordination: seeding dynamics at the social optimum (n=10, greedy rule):";
  let rows = ref [] in
  for seed = 1 to 5 do
    let r = Prng.create (15_000 + seed) in
    let alpha = 1.0 +. Prng.float r 5.0 in
    let host =
      Gncg.Host.make ~alpha
        (Gncg_metric.Random_host.uniform_metric r ~n:10 ~lo:1.0 ~hi:6.0)
    in
    let _, opt = Gncg.Social_optimum.best_known host in
    let from_random =
      match
        Gncg.Price_of_stability.cheapest_stable_via_dynamics ~starts:6 (Prng.split r) host
      with
      | Some (_, c) -> T.fl ~digits:4 (c /. opt)
      | None -> "-"
    in
    let from_opt =
      match Gncg.Price_of_stability.stable_from_optimum host with
      | Some (_, c) -> T.fl ~digits:4 (c /. opt)
      | None -> "-"
    in
    rows := [ string_of_int seed; T.fl ~digits:2 alpha; from_random; from_opt ] :: !rows
  done;
  T.print
    ~header:[ "seed"; "alpha"; "best of 6 random starts / opt"; "opt-seeded / opt" ]
    (List.rev !rows);
  print_endline "(Opt-seeded dynamics stay at or very near the optimum: low-cost stable\n\
                \ states are reachable with coordination, as the PoS question suggests.)"

(* ----------------------------------------------------------------- E18 *)

let e18_one_inf () =
  section "E18" "1-inf-GNCG (Demaine et al. variant, Table 1 row 2)";
  print_endline "Greedy dynamics on random connected 1-inf hosts (non-metric).";
  let rows = ref [] in
  List.iter
    (fun alpha ->
      let ratios = ref [] and diams = ref [] in
      for seed = 1 to 5 do
        let r = Prng.create (16_000 + seed) in
        let host = Gncg.Host.make ~alpha (Gncg_metric.One_inf.random_connected r ~n:12 ~p:0.25) in
        let start = W.Instances.random_profile r host in
        match
          Gncg.Dynamics.run
            (Gncg.Dynamics.Config.make ~max_steps:4000
               Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
            host start
        with
        | Gncg.Dynamics.Converged { profile; _ } ->
          let c = Gncg.Cost.social_cost host profile in
          let _, opt = Gncg.Social_optimum.greedy_heuristic host in
          ratios := (c /. opt) :: !ratios;
          diams := Gncg.Network.diameter host profile :: !diams
        | _ -> ()
      done;
      if !ratios <> [] then
        rows :=
          [
            T.fl ~digits:1 alpha;
            string_of_int (List.length !ratios);
            T.fl ~digits:4 (Gncg_util.Stats.mean !ratios);
            T.fl ~digits:4 (List.fold_left Float.max 0.0 !ratios);
            T.fl ~digits:1 (List.fold_left Float.max 0.0 !diams);
            T.fl ~digits:2 (sqrt alpha);
          ]
          :: !rows)
    [ 1.0; 2.0; 4.0; 9.0 ];
  T.print
    ~header:[ "alpha"; "GE found"; "mean GE/opt"; "worst"; "max diam"; "sqrt(alpha)" ]
    (List.rev !rows);
  print_endline
    "(The engine supports the non-metric 1-inf special case; measured ratios\n\
    \ stay far below the O(sqrt(alpha)) upper bound of Demaine et al.)"

(* ----------------------------------------------------------------- E19 *)

let e19_conjectures () =
  section "E19" "Probing the paper's conjectures";
  (* Conjecture 1: the R^d-GNCG has no FIP under ANY p-norm.  The paper
     proves it for the 1-norm (Thm 17); we search for improving-move
     cycles under other norms. *)
  print_endline "Conjecture 1 — improving-move cycles beyond the 1-norm:";
  List.iter
    (fun (name, norm) ->
      match
        C.Brcycle.search_generated ~tries:150 ~max_steps:800
          ~host_gen:(fun r ->
            let pts = Gncg_metric.Euclidean.random_uniform r ~n:8 ~d:2 ~lo:0.0 ~hi:5.0 in
            Gncg.Host.make
              ~alpha:(0.5 +. Prng.float r 2.5)
              (Gncg_metric.Euclidean.metric norm pts))
          (Prng.create 21)
      with
      | Some f ->
        Printf.printf "  %-4s: cycle of %d moves found; verified: %b\n" name
          (List.length f.cycle - 1)
          (C.Brcycle.verify_cycle f.host f.cycle)
      | None -> Printf.printf "  %-4s: no cycle in this budget\n" name)
    [
      ("l2", Gncg_metric.Euclidean.L2);
      ("l3", Gncg_metric.Euclidean.Lp 3.0);
      ("linf", Gncg_metric.Euclidean.Linf);
    ];
  (* Conjecture 2: the general-weights PoA equals (alpha+2)/2, i.e. the
     ((alpha+2)/2)^2 upper bound of Thm 20 is loose.  Exhaustively
     enumerate equilibria of random non-metric 4-agent hosts and record
     the worst ratio relative to both bounds. *)
  print_endline "\nConjecture 2 — worst exhaustive NE ratio on general 4-agent hosts:";
  let worst_margin = ref 0.0 and checked = ref 0 in
  for seed = 1 to 20 do
    let r = Prng.create (17_000 + seed) in
    let alpha = 0.5 +. Prng.float r 4.0 in
    let host =
      Gncg.Host.make ~alpha (Gncg_metric.Random_host.uniform r ~n:4 ~lo:1.0 ~hi:10.0)
    in
    match Gncg.Price_of_stability.exact host with
    | Some s ->
      incr checked;
      let ratio = s.Gncg.Price_of_stability.worst_ne_cost /. s.Gncg.Price_of_stability.opt_cost in
      worst_margin := Float.max !worst_margin (ratio /. Gncg.Quality.metric_upper alpha)
    | None -> ()
  done;
  Printf.printf
    "  %d hosts enumerated; worst NE/OPT relative to (a+2)/2: %.4f\n\
    \  (never above 1.0 -> consistent with Conjecture 2; the Thm-20 bound\n\
    \   ((a+2)/2)^2 was never approached)\n"
    !checked !worst_margin

(* ----------------------------------------------------------------- E20 *)

let e20_convergence_speed () =
  section "E20" "Convergence speed of response dynamics (empirical)";
  print_endline
    "Moves until convergence from random connected starts (5 seeds each).";
  let rows = ref [] in
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun n ->
          List.iter
            (fun (rname, rule) ->
              let moves = ref [] and conv = ref 0 in
              for seed = 1 to 5 do
                let r = Prng.create ((18_000 + seed) * n) in
                let host = W.Instances.random_host r model ~n ~alpha:2.0 in
                let start = W.Instances.random_profile r host in
                match
                  Gncg.Dynamics.run
                    (Gncg.Dynamics.Config.make ~max_steps:8000
                       rule Gncg.Dynamics.Round_robin)
                    host start
                with
                | Gncg.Dynamics.Converged { steps; _ } ->
                  incr conv;
                  moves := float_of_int (List.length steps) :: !moves
                | _ -> ()
              done;
              rows :=
                [
                  mname;
                  string_of_int n;
                  rname;
                  Printf.sprintf "%d/5" !conv;
                  (if !moves = [] then "-" else T.fl ~digits:1 (Gncg_util.Stats.mean !moves));
                  (if !moves = [] then "-"
                   else T.fl ~digits:1 (List.fold_left Float.max 0.0 !moves));
                ]
                :: !rows)
            [ ("greedy", Gncg.Dynamics.Greedy_response); ("add-only", Gncg.Dynamics.Add_only) ])
        [ 6; 10; 14 ])
    [
      ("1-2", W.Instances.One_two { p_one = 0.4 });
      ("tree", W.Instances.Tree { wmin = 1.0; wmax = 10.0 });
      ("euclid", W.Instances.Euclid { norm = L2; d = 2; box = 100.0 });
    ];
  T.print
    ~align:[ T.Left ]
    ~header:[ "model"; "n"; "rule"; "converged"; "mean moves"; "max moves" ]
    (List.rev !rows);
  print_endline
    "(Convergence in a handful of moves per agent: selfish dynamics settle\n\
    \ quickly on random instances even though no potential function exists.)"

(* ----------------------------------------------------------------- E21 *)

let e21_scaling () =
  section "E21" "Laptop-scale runs (fast incremental move evaluation)";
  print_endline
    "Greedy dynamics on planar hosts using the incremental evaluator;\n\
     stable networks vs the heuristic optimum and the Lemma-1 stretch bound.";
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          let r = Prng.create (19_000 + n) in
          let host =
            Gncg.Host.make ~alpha
              (Gncg_metric.Euclidean.metric L2
                 (Gncg_metric.Euclidean.random_uniform r ~n ~d:2 ~lo:0.0 ~hi:100.0))
          in
          let start = W.Instances.random_profile r host in
          let t0 = Sys.time () in
          match
            Gncg.Dynamics.run
              (Gncg.Dynamics.Config.make ~max_steps:20_000
                 Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
              host start
          with
          | Gncg.Dynamics.Converged { profile; steps; _ } ->
            let elapsed = Sys.time () -. t0 in
            let stats = Gncg.Net_stats.of_profile host profile in
            let _, opt = Gncg.Social_optimum.greedy_heuristic host in
            rows :=
              [
                string_of_int n;
                T.fl ~digits:1 alpha;
                string_of_int (List.length steps);
                T.fl ~digits:1 elapsed;
                T.fl ~digits:4 (stats.Gncg.Net_stats.social_cost /. opt);
                T.fl ~digits:3 stats.Gncg.Net_stats.stretch;
                T.fl ~digits:3 (Gncg.Quality.ae_spanner_stretch alpha);
                T.fl ~digits:2 stats.Gncg.Net_stats.avg_degree;
              ]
              :: !rows
          | _ ->
            rows := [ string_of_int n; T.fl ~digits:1 alpha; "-"; "-"; "-"; "-"; "-"; "-" ] :: !rows)
        [ 2.0; 8.0 ])
    [ 20; 40; 80 ];
  T.print
    ~header:[ "n"; "alpha"; "moves"; "sec"; "GE/heur-opt"; "stretch"; "a+1"; "avg deg" ]
    (List.rev !rows)

(* ----------------------------------------------------------------- E22 *)

let e22_exhaustive_kernel () =
  section "E22" "Exhaustive kernel: ALL 4-agent 1-2 hosts, ALL equilibria";
  print_endline
    "Every one of the 64 four-agent 1-2 hosts, with every Nash equilibrium\n\
     enumerated exhaustively, checked against every applicable theorem.";
  let alphas = [ 0.3; 0.75; 1.0; 2.5 ] in
  let hosts_checked = ref 0 in
  let ne_total = ref 0 in
  let violations = ref [] in
  let record name host_id alpha =
    violations := Printf.sprintf "%s (host %d, alpha %g)" name host_id alpha :: !violations
  in
  for mask = 0 to 63 do
    (* The 6 pairs of K4 in lexicographic order. *)
    let pairs = [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
    let ones = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) pairs in
    let m = Gncg_metric.One_two.of_one_edges 4 ones in
    List.iter
      (fun alpha ->
        incr hosts_checked;
        let host = Gncg.Host.make ~alpha m in
        let _, opt = Gncg.Social_optimum.exact_small host in
        let nes = Gncg.Price_of_stability.enumerate_ne host in
        ne_total := !ne_total + List.length nes;
        List.iter
          (fun ne ->
            let cost = Gncg.Cost.social_cost host ne in
            (* Thm 1 (metric): cost ratio bound. *)
            if cost /. opt > Gncg.Quality.metric_upper alpha +. 1e-9 then
              record "Thm 1 ratio violated" mask alpha;
            (* Lemma 1: (alpha+1)-spanner. *)
            let g = Gncg.Network.graph host ne in
            if
              Gncg.Quality.host_stretch host g
              > Gncg.Quality.ae_spanner_stretch alpha +. 1e-9
            then record "Lemma 1 stretch violated" mask alpha;
            (* Thm 9: for alpha < 1/2 every NE is the Algorithm-1 optimum. *)
            if alpha < 0.5 then begin
              let _, alg1 = Gncg.Social_optimum.algorithm_one host in
              if not (Gncg_util.Flt.approx_eq ~tol:1e-6 cost alg1) then
                record "Thm 9 optimality violated" mask alpha
            end)
          nes;
        (* Lemma 2: OPT is an (alpha/2+1)-spanner. *)
        let opt_g, _ = Gncg.Social_optimum.exact_small host in
        if
          Gncg.Quality.host_stretch host opt_g
          > Gncg.Quality.opt_spanner_stretch alpha +. 1e-9
        then record "Lemma 2 stretch violated" mask alpha)
      alphas
  done;
  Printf.printf
    "hosts x alphas checked: %d;  equilibria enumerated: %d;  violations: %d\n"
    !hosts_checked !ne_total
    (List.length !violations);
  List.iter (fun v -> Printf.printf "  VIOLATION: %s\n" v) !violations;
  if !violations = [] then
    print_endline
      "(Thm 1, Thm 9, Lemma 1 and Lemma 2 hold on the entire 4-agent 1-2 kernel.)"

(* ----------------------------------------------------------------- E23 *)

let e23_journaled_sweep () =
  section "E23" "Journal-backed PoA sweep (the runs subsystem end to end)";
  print_endline
    "Greedy dynamics PoA series regenerated through a durable journal: the\n\
     batch runs on the runs scheduler, whose domains claim jobs from one\n\
     shared index, every result is appended to a JSONL journal, and a\n\
     resume pass verifies nothing re-executes.";
  let journal = Filename.temp_file "gncg_e23" ".jsonl" in
  let config =
    Gncg_runs.Job.grid
      (W.Instances.Euclid { norm = L2; d = 2; box = 100.0 })
      ~ns:[ 8 ] ~alphas:[ 0.5; 1.0; 2.0; 4.0 ]
      ~seeds:[ 1; 2; 3; 4 ]
  in
  let summary = Gncg_runs.Batch.run ~journal config in
  let by_alpha =
    List.map
      (fun alpha ->
        ( T.fl ~digits:1 alpha,
          List.filter
            (fun (r : W.Sweep.run) -> Gncg_util.Flt.approx_eq ~tol:1e-9 r.alpha alpha)
            summary.runs ))
      [ 0.5; 1.0; 2.0; 4.0 ]
  in
  W.Report.print_ratio_summary ~group_label:"alpha" by_alpha;
  (match Gncg_runs.Batch.resume ~journal () with
  | Ok resumed ->
    Printf.printf
      "journal: %d jobs journaled; resume re-executed %d (expected 0); runs identical: %b\n"
      summary.progress.total resumed.progress.executed
      (W.Report.runs_to_csv resumed.runs = W.Report.runs_to_csv summary.runs)
  | Error msg -> Printf.printf "journal: resume FAILED: %s\n" msg);
  Sys.remove journal

let all =
  [
    ("E1", e1_poa_onetwo_small_alpha);
    ("E2", e2_poa_onetwo_fig3);
    ("E3", e3_onetwo_large_alpha);
    ("E4", e4_poa_tree_fig6);
    ("E5", e5_tree_ne_structure);
    ("E6", e6_poa_line_fig9);
    ("E7", e7_poa_fourpoint);
    ("E8", e8_poa_cross_fig10);
    ("E9", e9_general_gap);
    ("E10", e10_fip_violation);
    ("E11", e11_vc_reduction);
    ("E12", e12_setcover_br);
    ("E13", e13_metric_upper_bound);
    ("E14", e14_approx_ne);
    ("E15", e15_spanner_lemmas);
    ("E16", e16_spanner_nash);
    ("E17", e17_price_of_stability);
    ("E18", e18_one_inf);
    ("E19", e19_conjectures);
    ("E20", e20_convergence_speed);
    ("E21", e21_scaling);
    ("E22", e22_exhaustive_kernel);
    ("E23", e23_journaled_sweep);
  ]
