open Helpers
module S = Gncg.Serialize
module Prng = Gncg_util.Prng
module E = Gncg_util.Gncg_error

(* The loaded value of a load that must succeed. *)
let loaded name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" name (E.to_string e)

let test_host_roundtrip () =
  let r = rng 1500 in
  List.iter
    (fun model ->
      let host = Gncg_workload.Instances.random_host r model ~n:7 ~alpha:2.25 in
      let host' = loaded "host" (S.host_of_string_result (S.host_to_string host)) in
      check_float "alpha preserved" (Gncg.Host.alpha host) (Gncg.Host.alpha host');
      check_true "metric preserved"
        (Gncg_metric.Metric.equal ~tol:0.0 (Gncg.Host.metric host) (Gncg.Host.metric host')))
    Gncg_workload.Instances.default_models

let test_profile_roundtrip () =
  let r = rng 1501 in
  let host = Gncg_workload.Instances.random_host r (List.hd Gncg_workload.Instances.default_models) ~n:8 ~alpha:1.0 in
  for _ = 1 to 5 do
    let s = Gncg_workload.Instances.random_profile r host in
    let s' = loaded "profile" (S.profile_of_string_result (S.profile_to_string s)) in
    check_true "profile preserved" (Gncg.Strategy.equal s s')
  done

let test_infinite_weights_roundtrip () =
  let m = Gncg_metric.One_inf.of_allowed_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let host = Gncg.Host.make ~alpha:3.0 m in
  let host' = loaded "host" (S.host_of_string_result (S.host_to_string host)) in
  check_true "forbidden edge stays infinite"
    (Gncg.Host.weight host' 0 3 = Float.infinity);
  check_float "allowed edge" 1.0 (Gncg.Host.weight host' 0 1)

let test_file_roundtrip () =
  let host = Gncg_constructions.Thm15_tree_star.host ~alpha:2.0 ~n:5 in
  let path = Filename.temp_file "gncg" ".host" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.host_to_file path host;
      let host' = loaded "host file" (S.host_of_file_result path) in
      check_true "file roundtrip"
        (Gncg_metric.Metric.equal ~tol:0.0 (Gncg.Host.metric host) (Gncg.Host.metric host')));
  let s = Gncg_constructions.Thm15_tree_star.ne_profile ~alpha:2.0 ~n:5 in
  let path = Filename.temp_file "gncg" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.profile_to_file path s;
      check_true "profile file roundtrip"
        (Gncg.Strategy.equal s (loaded "profile file" (S.profile_of_file_result path))))

let expect_error name result check =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected a typed error" name
  | Error e ->
    if not (check e) then Alcotest.failf "%s: wrong error: %s" name (E.to_string e)

(* Every malformed input is a [Parse] error at the offending line (no
   line when the input ends early). *)
let test_malformed_rejected () =
  let parse_error_at where e = e.E.kind = E.Parse && e.E.where = where in
  expect_error "empty" (S.host_of_string_result "") (parse_error_at E.Nowhere);
  expect_error "wrong magic"
    (S.host_of_string_result "gncg-profile 1\nn 2\nalpha 1\n")
    (parse_error_at (E.Line 1));
  expect_error "missing alpha"
    (S.host_of_string_result "gncg-host 1\nn 2\n")
    (parse_error_at E.Nowhere);
  expect_error "bad pair"
    (S.host_of_string_result "gncg-host 1\nn 2\nalpha 1\nw 0 5 1.0\n")
    (parse_error_at (E.Line 4));
  expect_error "bad number"
    (S.host_of_string_result "gncg-host 1\nn 2\nalpha 1\nw 0 1 zzz\n")
    (parse_error_at (E.Line_column (4, 7)));
  expect_error "self purchase"
    (S.profile_of_string_result "gncg-profile 1\nn 3\nbuy 1 1\n")
    (parse_error_at (E.Line 3))

(* Malformed fixtures must produce *located* typed errors: the kind
   matches the defect and the location names the offending line (and
   column for bad numbers). *)
let test_malformed_fixture_locations () =
  expect_error "bad number line+column"
    (S.host_of_string_result "gncg-host 1\nn 2\nalpha 1\nw 0 1 zzz\n")
    (fun e ->
      e.E.kind = E.Parse && e.E.where = E.Line_column (4, 7));
  expect_error "missing header"
    (S.host_of_string_result "n 2\nalpha 1\nw 0 1 2.0\n")
    (fun e -> e.E.kind = E.Parse && e.E.where = E.Line 1);
  expect_error "truncated purchase list"
    (S.profile_of_string_result "gncg-profile 1\nn 3\nbuy 0 1\nbuy 2\n")
    (fun e -> e.E.kind = E.Parse && e.E.where = E.Line 4);
  expect_error "negative weight kind"
    (S.host_of_string_result "gncg-host 1\nn 2\nalpha 1\nw 0 1 -3.0\n")
    (fun e -> e.E.kind = E.Negative && e.E.where = E.Line 4);
  expect_error "NaN weight kind"
    (S.host_of_string_result "gncg-host 1\nn 2\nalpha 1\nw 0 1 nan\n")
    (fun e -> e.E.kind = E.Not_finite && e.E.where = E.Line 4);
  expect_error "non-positive alpha"
    (S.host_of_string_result "gncg-host 1\nn 2\nalpha 0\nw 0 1 2.0\n")
    (fun e -> e.E.kind = E.Negative && e.E.where = E.Line 3);
  expect_error "file errors carry the path"
    (S.host_of_file_result "/nonexistent/gncg.host")
    (fun e -> e.E.kind = E.Io && e.E.where = E.File "/nonexistent/gncg.host")

(* Bad fixtures round-trip through a file: writing the malformed text
   and loading it reports the same located error as the string parser. *)
let test_malformed_fixture_file_roundtrip () =
  let fixtures =
    [
      ("bad-number", "gncg-host 1\nn 2\nalpha 1\nw 0 1 zzz\n");
      ("missing-header", "n 2\nalpha 1\n");
      ("bad-alpha", "gncg-host 1\nn 2\nalpha oops\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      let path = Filename.temp_file "gncg_bad" ".host" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          match (S.host_of_string_result text, S.host_of_file_result path) with
          | Ok _, _ | _, Ok _ -> Alcotest.failf "%s: fixture accepted" name
          | Error es, Error ef ->
            check_true (name ^ ": same kind") (es.E.kind = ef.E.kind);
            check_true (name ^ ": file location attached")
              (match ef.E.where with
              | E.File p | E.File_line (p, _) -> p = path
              | _ -> false)))
    fixtures

let test_validate_on_load () =
  (* vertex 2 has no finite-weight path: every load rejects it with a
     typed Disconnected error. *)
  let text = "gncg-host 1\nn 3\nalpha 1\nw 0 1 2.0\n" in
  expect_error "load rejects disconnected" (S.host_of_string_result text) (fun e ->
      e.E.kind = E.Disconnected);
  (* A zero off-diagonal weight names no host family either. *)
  expect_error "load rejects a zero weight"
    (S.host_of_string_result "gncg-host 1\nn 2\nalpha 1\nw 0 1 0\n")
    (fun e -> e.E.kind = E.Negative)

let test_comments_and_blank_lines () =
  let text = "gncg-host 1\n\n# a comment\nn 2\nalpha 1.5\nw 0 1 2.0\n\n" in
  let host = loaded "commented host" (S.host_of_string_result text) in
  check_float "weight parsed" 2.0 (Gncg.Host.weight host 0 1)

let suites =
  [
    ( "serialize",
      [
        case "host roundtrip (all models)" test_host_roundtrip;
        case "profile roundtrip" test_profile_roundtrip;
        case "infinite weights" test_infinite_weights_roundtrip;
        case "file roundtrip" test_file_roundtrip;
        case "malformed rejected" test_malformed_rejected;
        case "malformed fixtures located" test_malformed_fixture_locations;
        case "malformed fixtures via files" test_malformed_fixture_file_roundtrip;
        case "validation on load" test_validate_on_load;
        case "comments tolerated" test_comments_and_blank_lines;
      ] );
  ]
