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

let make ?(rule = Greedy_response) ?(max_steps = 5000) model ~n ~alpha ~seed =
  { model; n; alpha; seed; rule; max_steps }

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
  match parts with
  | None -> Error (Printf.sprintf "bad model %S (expected name(args))" s)
  | Some (name, args) -> (
    match (name, args) with
    | "one-two", [ p ] ->
      let* p_one = float_arg p in
      Ok (Instances.One_two { p_one })
    | "tree", [ a; b ] ->
      let* wmin = float_arg a in
      let* wmax = float_arg b in
      Ok (Instances.Tree { wmin; wmax })
    | "euclid", [ nm; d; box ] ->
      let* norm = norm_of_string nm in
      let* d = int_arg d in
      let* box = float_arg box in
      Ok (Instances.Euclid { norm; d; box })
    | "graph", [ p; a; b ] ->
      let* p = float_arg p in
      let* wmin = float_arg a in
      let* wmax = float_arg b in
      Ok (Instances.Graph_metric { p; wmin; wmax })
    | "general", [ a; b ] ->
      let* lo = float_arg a in
      let* hi = float_arg b in
      Ok (Instances.General { lo; hi })
    | "one-inf", [ p ] ->
      let* p = float_arg p in
      Ok (Instances.One_inf { p })
    | _ -> Error (Printf.sprintf "unknown model %S" s))

(* --- canonical encoding + hash ----------------------------------------- *)

(* [eval=incremental] is a constant: dynamics once ran under a choice of
   two evaluators, and journal entries on disk are keyed by the hash of
   this string, so it keeps its bytes. *)
let to_canonical j =
  Printf.sprintf
    "gncg-job:1;model=%s;n=%d;alpha=%s;seed=%d;rule=%s;eval=incremental;max_steps=%d"
    (model_to_string j.model) j.n (fl j.alpha) j.seed (rule_to_string j.rule) j.max_steps

let hash j =
  (* FNV-1a, 64 bit.  OCaml's native int is 63 bits: do the arithmetic in
     int64 so the hash matches the published constants exactly. *)
  let fnv_offset = 0xcbf29ce484222325L and fnv_prime = 0x100000001b3L in
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    (to_canonical j);
  Printf.sprintf "%016Lx" !h

(* --- JSON -------------------------------------------------------------- *)

let to_json j =
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

let execute j =
  Gncg_workload.Sweep.dynamics_run ~rule:(dynamics_rule j.rule) ~max_steps:j.max_steps
    j.model ~n:j.n ~alpha:j.alpha ~seed:j.seed
