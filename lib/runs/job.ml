module Instances = Gncg_workload.Instances

type rule = Best_response | Greedy_response | Add_only

type spec = {
  model : Instances.model;
  n : int;
  alpha : float;
  seed : int;
  rule : rule;
  max_steps : int;
}

let default_rule = Greedy_response

let default_max_steps = 5000

let make ?(rule = default_rule) ?(max_steps = default_max_steps) model ~n ~alpha ~seed =
  { model; n; alpha; seed; rule; max_steps }

type grid = {
  model : Instances.model;
  ns : int list;
  alphas : float list;
  seeds : int list;
  rule : rule;
  max_steps : int;
}

let grid ?(rule = default_rule) ?(max_steps = default_max_steps) model ~ns ~alphas ~seeds =
  { model; ns; alphas; seeds; rule; max_steps }

let jobs (g : grid) =
  List.map
    (fun (n, alpha, seed) -> make ~rule:g.rule ~max_steps:g.max_steps g.model ~n ~alpha ~seed)
    (Gncg_workload.Sweep.cartesian ~ns:g.ns ~alphas:g.alphas ~seeds:g.seeds)

let dynamics_rule = function
  | Best_response -> Gncg.Dynamics.Best_response
  | Greedy_response -> Gncg.Dynamics.Greedy_response
  | Add_only -> Gncg.Dynamics.Add_only

let rule_to_string = function
  | Best_response -> "best"
  | Greedy_response -> "greedy"
  | Add_only -> "add-only"

let rule_of_string = function
  | "best" -> Ok Best_response
  | "greedy" -> Ok Greedy_response
  | "add-only" -> Ok Add_only
  | s -> Error (Printf.sprintf "unknown rule %S (best | greedy | add-only)" s)

let legacy_evaluator v =
  match Json.member "evaluator" v with
  | Error _ -> Ok ()
  | Ok e -> (
    match Json.get_string e with
    | Ok ("reference" | "incremental") -> Ok ()
    | Ok s -> Error (Printf.sprintf "unknown evaluator %S (reference | incremental)" s)
    | Error _ as err -> err)

(* --- model encoding ---------------------------------------------------- *)

(* %.17g round-trips every finite double, so the canonical form is stable
   across render/parse cycles. *)
let fl x = Printf.sprintf "%.17g" x

let norm_to_string = function
  | Gncg_metric.Euclidean.L1 -> "l1"
  | Gncg_metric.Euclidean.L2 -> "l2"
  | Gncg_metric.Euclidean.Linf -> "linf"
  | Gncg_metric.Euclidean.Lp p -> "lp" ^ fl p

let norm_of_string s =
  match s with
  | "l1" -> Ok Gncg_metric.Euclidean.L1
  | "l2" -> Ok Gncg_metric.Euclidean.L2
  | "linf" -> Ok Gncg_metric.Euclidean.Linf
  | _ when String.length s > 2 && String.sub s 0 2 = "lp" -> (
    match float_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some p -> Ok (Gncg_metric.Euclidean.Lp p)
    | None -> Error (Printf.sprintf "bad norm %S" s))
  | _ -> Error (Printf.sprintf "bad norm %S" s)

let model_to_string = function
  | Instances.One_two { p_one } -> Printf.sprintf "one-two(%s)" (fl p_one)
  | Instances.Tree { wmin; wmax } -> Printf.sprintf "tree(%s,%s)" (fl wmin) (fl wmax)
  | Instances.Euclid { norm; d; box } ->
    Printf.sprintf "euclid(%s,%d,%s)" (norm_to_string norm) d (fl box)
  | Instances.Graph_metric { p; wmin; wmax } ->
    Printf.sprintf "graph(%s,%s,%s)" (fl p) (fl wmin) (fl wmax)
  | Instances.General { lo; hi } -> Printf.sprintf "general(%s,%s)" (fl lo) (fl hi)
  | Instances.One_inf { p } -> Printf.sprintf "one-inf(%s)" (fl p)

(* The range of every model parameter: every real finite, a probability
   in [0, 1], a weight range 0 < lo <= hi, a point box of side > 0 in
   d >= 1 dimensions, a p-norm with p >= 1.  Outside it a model names no
   host family of the paper, and its generator fails or returns a
   degenerate host. *)
let check_range s model =
  let prob p = 0.0 <= p && p <= 1.0 in
  let range lo hi = 0.0 < lo && lo <= hi && hi < Float.infinity in
  let ok, rule =
    match model with
    | Instances.One_two { p_one = p } | Instances.One_inf { p } -> (prob p, "0 <= p <= 1")
    | Instances.Tree { wmin; wmax } -> (range wmin wmax, "0 < wmin <= wmax")
    | Instances.Graph_metric { p; wmin; wmax } ->
      (prob p && range wmin wmax, "0 <= p <= 1 and 0 < wmin <= wmax")
    | Instances.General { lo; hi } -> (range lo hi, "0 < lo <= hi")
    | Instances.Euclid { norm; d; box } ->
      let norm_ok =
        match norm with
        | Gncg_metric.Euclidean.Lp p -> 1.0 <= p && p < Float.infinity
        | Gncg_metric.Euclidean.(L1 | L2 | Linf) -> true
      in
      (d >= 1 && 0.0 < box && box < Float.infinity && norm_ok, "d >= 1, 0 < box and p >= 1")
  in
  if ok then Ok model
  else Error (Printf.sprintf "model %S out of range (%s, all finite)" s rule)

let model_of_string s =
  let ( let* ) = Result.bind in
  let parts =
    match String.index_opt s '(' with
    | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
      Some
        ( String.sub s 0 i,
          String.split_on_char ',' (String.sub s (i + 1) (String.length s - i - 2)) )
    | _ -> None
  in
  let float_arg a =
    match float_of_string_opt a with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad model parameter %S in %S" a s)
  in
  let int_arg a =
    match int_of_string_opt a with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad model parameter %S in %S" a s)
  in
  let* model =
    match parts with
    | None -> Error (Printf.sprintf "bad model %S (expected name(args))" s)
    | Some ("one-two", [ p ]) ->
      let* p_one = float_arg p in
      Ok (Instances.One_two { p_one })
    | Some ("tree", [ a; b ]) ->
      let* wmin = float_arg a in
      let* wmax = float_arg b in
      Ok (Instances.Tree { wmin; wmax })
    | Some ("euclid", [ nm; d; box ]) ->
      let* norm = norm_of_string nm in
      let* d = int_arg d in
      let* box = float_arg box in
      Ok (Instances.Euclid { norm; d; box })
    | Some ("graph", [ p; a; b ]) ->
      let* p = float_arg p in
      let* wmin = float_arg a in
      let* wmax = float_arg b in
      Ok (Instances.Graph_metric { p; wmin; wmax })
    | Some ("general", [ a; b ]) ->
      let* lo = float_arg a in
      let* hi = float_arg b in
      Ok (Instances.General { lo; hi })
    | Some ("one-inf", [ p ]) ->
      let* p = float_arg p in
      Ok (Instances.One_inf { p })
    | Some _ -> Error (Printf.sprintf "unknown model %S" s)
  in
  check_range s model

(* --- canonical encoding + hash ----------------------------------------- *)

(* [eval=incremental] is a constant: dynamics once ran under a choice of
   two evaluators, and journal entries on disk are keyed by the hash of
   this string, so it keeps its bytes. *)
let to_canonical (j : spec) =
  Printf.sprintf
    "gncg-job:1;model=%s;n=%d;alpha=%s;seed=%d;rule=%s;eval=incremental;max_steps=%d"
    (model_to_string j.model) j.n (fl j.alpha) j.seed (rule_to_string j.rule) j.max_steps

let content_hash s =
  (* FNV-1a, 64 bit.  OCaml's native int is 63 bits: do the arithmetic in
     int64 so the hash matches the published constants exactly. *)
  let fnv_offset = 0xcbf29ce484222325L and fnv_prime = 0x100000001b3L in
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  Printf.sprintf "%016Lx" !h

let hash j = content_hash (to_canonical j)

(* --- JSON -------------------------------------------------------------- *)

let to_json (j : spec) =
  Json.Obj
    [
      ("model", Json.Str (model_to_string j.model));
      ("n", Json.num_int j.n);
      ("alpha", Json.Num j.alpha);
      ("seed", Json.num_int j.seed);
      ("rule", Json.Str (rule_to_string j.rule));
      ("max_steps", Json.num_int j.max_steps);
    ]

let of_json v =
  let ( let* ) = Result.bind in
  let str k = Result.bind (Json.member k v) Json.get_string in
  let int k = Result.bind (Json.member k v) Json.get_int in
  let* model = Result.bind (str "model") model_of_string in
  let* n = int "n" in
  let* alpha = Result.bind (Json.member "alpha" v) Json.get_float in
  let* seed = int "seed" in
  let* rule = Result.bind (str "rule") rule_of_string in
  let* () = legacy_evaluator v in
  let* max_steps = int "max_steps" in
  Ok { model; n; alpha; seed; rule; max_steps }

(* The lists of a grid object, each entry checked by the engine's own
   range rule: the one decoder of journal manifests and serve sweep
   requests. *)
let grid_lists_of_json v =
  let ( let* ) = Result.bind in
  let list k get check =
    let* xs = Result.bind (Json.member k v) Json.get_list in
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = Result.bind (get x) check in
        Ok (y :: acc))
      xs (Ok [])
  in
  let* ns = list "ns" Json.get_int Gncg.Host.check_n in
  let* alphas = list "alphas" Json.get_float Gncg.Host.check_alpha in
  let* seeds = list "seeds" Json.get_int Result.ok in
  Ok (ns, alphas, seeds)

let execute (j : spec) =
  Gncg_workload.Sweep.dynamics_run ~rule:(dynamics_rule j.rule) ~max_steps:j.max_steps
    j.model ~n:j.n ~alpha:j.alpha ~seed:j.seed
