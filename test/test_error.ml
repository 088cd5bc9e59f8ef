(* Typed-error plumbing and input validation: each invariant the
   validators promise to catch is violated in isolation and must come
   back as the matching Gncg_error kind with a usable location. *)

open Helpers
module E = Gncg_util.Gncg_error
module Metric = Gncg_metric.Metric

let expect name result kind check_where =
  match result with
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error e ->
    if e.E.kind <> kind then
      Alcotest.failf "%s: wrong kind: %s" name (E.to_string e);
    if not (check_where e.E.where) then
      Alcotest.failf "%s: wrong location: %s" name (E.to_string e)

(* A valid 4-point metric to perturb. *)
let good () =
  [|
    [| 0.; 1.; 2.; 2. |];
    [| 1.; 0.; 1.; 2. |];
    [| 2.; 1.; 0.; 1. |];
    [| 2.; 2.; 1.; 0. |];
  |]

let test_metric_validate () =
  (match Metric.validate (Metric.of_matrix (good ())) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good metric rejected: %s" (E.to_string e));
  (* The constructors already refuse NaN, negatives, and asymmetry with
     invalid_arg (caller contract) — the validator owns the defects a
     well-typed Metric.t can still carry. *)
  (match Metric.make 3 (fun _ _ -> Float.nan) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN weight accepted by Metric.make");
  (match Metric.make 3 (fun _ _ -> -1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative weight accepted by Metric.make");
  (match Metric.of_matrix [| [| 0.; 1. |]; [| 2.; 0. |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "asymmetric matrix accepted by Metric.of_matrix");
  let perturbed f =
    let m = good () in
    f m;
    Metric.validate (Metric.make 4 (fun u v -> m.(u).(v)))
  in
  expect "zero off-diagonal"
    (perturbed (fun m -> m.(1).(2) <- 0.0; m.(2).(1) <- 0.0))
    E.Negative
    (function E.Pair (1, 2) -> true | _ -> false);
  expect "triangle violation"
    (perturbed (fun m -> m.(0).(3) <- 10.0; m.(3).(0) <- 10.0))
    E.Triangle
    (function E.Triple (0, 3, _) -> true | _ -> false);
  expect "infinite weight in a metric"
    (perturbed (fun m -> m.(0).(3) <- Float.infinity; m.(3).(0) <- Float.infinity))
    E.Not_finite
    (function E.Pair (0, 3) -> true | _ -> false)

let test_metric_validate_relaxed () =
  (* require_metric:false admits infinite weights as long as finite
     paths connect everyone; a genuinely stranded vertex is still out. *)
  let m =
    [|
      [| 0.; 1.; Float.infinity |];
      [| 1.; 0.; Float.infinity |];
      [| Float.infinity; Float.infinity; 0. |];
    |]
  in
  let metric () = Metric.make 3 (fun u v -> m.(u).(v)) in
  (let disconnected = Metric.validate ~require_metric:false (metric ()) in
   expect "stranded vertex" disconnected E.Disconnected
     (function E.Vertex 2 -> true | _ -> false));
  (match Metric.validate ~require_metric:false ~require_connected:false (metric ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "connectivity-exempt rejected: %s" (E.to_string e));
  m.(1).(2) <- 5.0;
  m.(2).(1) <- 5.0;
  match Metric.validate ~require_metric:false (metric ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "connected 1-inf host rejected: %s" (E.to_string e)

let test_host_validate () =
  let metric = Metric.of_matrix (good ()) in
  (match Gncg.Host.validate (Gncg.Host.make ~alpha:2.0 metric) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good host rejected: %s" (E.to_string e));
  (* Bad alpha never reaches the validator: Host.make is a caller
     contract and rejects it at construction. *)
  (match Gncg.Host.make ~alpha:Float.nan metric with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN alpha accepted by Host.make");
  (match Gncg.Host.make ~alpha:0.0 metric with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero alpha accepted by Host.make");
  (* Metric defects propagate through Host.validate with their own kind. *)
  let m = good () in
  m.(0).(3) <- 10.0;
  m.(3).(0) <- 10.0;
  expect "host propagates triangle violations"
    (Gncg.Host.validate (Gncg.Host.make ~alpha:1.0 (Metric.make 4 (fun u v -> m.(u).(v)))))
    E.Triangle
    (function E.Triple _ -> true | _ -> false)

let test_network_validate () =
  let host = Gncg.Host.make ~alpha:1.0 (Metric.of_matrix (good ())) in
  let r = rng 77 in
  let s = Gncg_workload.Instances.random_profile r host in
  (match Gncg.Network.validate host s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good profile rejected: %s" (E.to_string e));
  expect "size mismatch"
    (Gncg.Network.validate host (Gncg.Strategy.empty 3))
    E.Inconsistent
    (fun _ -> true);
  (* An empty profile builds no edges: fine unless connectivity is
     demanded. *)
  (match Gncg.Network.validate host (Gncg.Strategy.empty 4) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty profile rejected: %s" (E.to_string e));
  expect "empty network disconnected"
    (Gncg.Network.validate ~require_connected:true host (Gncg.Strategy.empty 4))
    E.Disconnected
    (fun _ -> true)

let test_model_validation_and_strict_mode () =
  let r = rng 1234 in
  List.iter
    (fun model ->
      let host = Gncg_workload.Instances.random_host r model ~n:9 ~alpha:2.0 in
      match Gncg_workload.Instances.validate_host model host with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s host rejected by its own model validator: %s"
          (Gncg_workload.Instances.model_name model)
          (E.to_string e))
    Gncg_workload.Instances.default_models;
  (* Strict mode turns generation-time validation on; every stock model
     must still generate cleanly. *)
  E.set_strict_validation true;
  Fun.protect
    ~finally:(fun () -> E.set_strict_validation false)
    (fun () ->
      List.iter
        (fun model ->
          ignore (Gncg_workload.Instances.random_host r model ~n:9 ~alpha:2.0))
        Gncg_workload.Instances.default_models)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_rendering_and_unreachable () =
  let e = E.v ~where:(E.Line_column (4, 7)) ~context:"Serialize.host_of_string_result" E.Parse "bad float" in
  let s = E.to_string e in
  List.iter
    (fun needle ->
      check_true (Printf.sprintf "rendering contains %S" needle)
        (contains ~needle s))
    [ "Serialize.host_of_string_result"; "parse error"; "line 4"; "column 7"; "bad float" ];
  match E.unreachable ~context:"Test" "cannot happen" with
  | exception E.Error e' -> check_true "unreachable is Internal" (e'.E.kind = E.Internal)
  | _ -> Alcotest.fail "unreachable returned"

let suites =
  [
    ( "error",
      [
        case "metric validation kinds and locations" test_metric_validate;
        case "relaxed (non-metric) validation" test_metric_validate_relaxed;
        case "host validation" test_host_validate;
        case "network validation" test_network_validate;
        case "model validators + strict generation" test_model_validation_and_strict_mode;
        case "rendering and unreachable" test_rendering_and_unreachable;
      ] );
  ]
