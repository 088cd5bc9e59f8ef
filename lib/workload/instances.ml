module Euclidean = Gncg_metric.Euclidean

type model =
  | One_two of { p_one : float }
  | Tree of { wmin : float; wmax : float }
  | Euclid of { norm : Euclidean.norm; d : int; box : float }
  | Graph_metric of { p : float; wmin : float; wmax : float }
  | General of { lo : float; hi : float }
  | One_inf of { p : float }

let model_name = function
  | One_two _ -> "1-2"
  | Tree _ -> "tree"
  | Euclid { norm; d; _ } ->
    let norm_name =
      match norm with
      | Euclidean.L1 -> "l1"
      | Euclidean.L2 -> "l2"
      | Euclidean.Lp p -> Printf.sprintf "l%g" p
      | Euclidean.Linf -> "linf"
    in
    Printf.sprintf "R^%d(%s)" d norm_name
  | Graph_metric _ -> "graph-metric"
  | General _ -> "general"
  | One_inf _ -> "1-inf"

let default_models =
  [
    One_two { p_one = 0.4 };
    Tree { wmin = 1.0; wmax = 10.0 };
    Euclid { norm = Euclidean.L2; d = 2; box = 100.0 };
    Graph_metric { p = 0.3; wmin = 1.0; wmax = 10.0 };
    General { lo = 1.0; hi = 10.0 };
    One_inf { p = 0.3 };
  ]

let named_models =
  [
    ("one-two", One_two { p_one = 0.4 });
    ("tree", Tree { wmin = 1.0; wmax = 10.0 });
    ("euclid", Euclid { norm = Euclidean.L2; d = 2; box = 100.0 });
    ("l1", Euclid { norm = Euclidean.L1; d = 2; box = 100.0 });
    ("graph", Graph_metric { p = 0.3; wmin = 1.0; wmax = 10.0 });
    ("general", General { lo = 1.0; hi = 10.0 });
    ("one-inf", One_inf { p = 0.3 });
  ]

(* Geometric models keep their implicit description alongside the
   tabulated host. *)
let random_geometry rng model ~n =
  match model with
  | Tree { wmin; wmax } ->
    Some (Gncg_metric.Geometry.tree (Gncg_metric.Tree_metric.random rng ~n ~wmin ~wmax))
  | Euclid { norm; d; box } ->
    Some
      (Gncg_metric.Geometry.points ~norm
         (Euclidean.random_uniform rng ~n ~d ~lo:0.0 ~hi:box))
  | One_two _ | Graph_metric _ | General _ | One_inf _ -> None

let random_metric_geometry rng model ~n =
  match random_geometry rng model ~n with
  | Some geo -> (Gncg_metric.Geometry.to_metric geo, Some geo)
  | None ->
    let m =
      match model with
      | One_two { p_one } -> Gncg_metric.One_two.random rng ~n ~p_one
      | Graph_metric { p; wmin; wmax } ->
        Gncg_metric.Random_host.random_graph_metric rng ~n ~p ~wmin ~wmax
      | General { lo; hi } -> Gncg_metric.Random_host.uniform rng ~n ~lo ~hi
      | One_inf { p } -> Gncg_metric.One_inf.random_connected rng ~n ~p
      | Tree _ | Euclid _ -> assert false
    in
    (m, None)

let random_metric rng model ~n = fst (random_metric_geometry rng model ~n)

(* Which validation profile fits each model family: exact triangle checks
   for the discrete 1-2 weights, tolerant ones for closure/point-set
   metrics, weights-only for the intentionally non-metric families. *)
let validate_host model host =
  match model with
  | One_two _ -> Gncg.Host.validate ~tol:0.0 host
  | Tree _ | Euclid _ | Graph_metric _ -> Gncg.Host.validate host
  | General _ -> Gncg.Host.validate ~require_metric:false host
  | One_inf _ -> Gncg.Host.validate ~require_metric:false host

let random_host rng model ~n ~alpha =
  let m, geometry = random_metric_geometry rng model ~n in
  Gncg.Host.make ?geometry ~alpha m

let random_profile rng host = Gncg_constructions.Brcycle.random_profile rng host
