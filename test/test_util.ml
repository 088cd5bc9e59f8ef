open Helpers
module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Stats = Gncg_util.Stats

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xs = List.init 50 (fun _ -> Prng.bits64 a) in
  let ys = List.init 50 (fun _ -> Prng.bits64 b) in
  check_true "streams differ" (xs <> ys)

let test_prng_int_range () =
  let r = rng 3 in
  for _ = 1 to 1000 do
    let x = Prng.int r 17 in
    check_true "in range" (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int r 0))

let test_prng_int_uniformish () =
  let r = rng 11 in
  let counts = Array.make 10 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let x = Prng.int r 10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < trials / 20 || c > trials / 5 then
        Alcotest.failf "bucket %d count %d out of tolerance" i c)
    counts

let test_prng_float_range () =
  let r = rng 5 in
  for _ = 1 to 1000 do
    let x = Prng.float_in r 2.0 5.0 in
    check_true "in range" (x >= 2.0 && x < 5.0)
  done

let test_prng_copy () =
  let a = Prng.create 5 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_permutation () =
  let r = rng 9 in
  let p = Prng.permutation r 30 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..29" (Array.init 30 Fun.id) sorted

let test_prng_sample () =
  let r = rng 13 in
  let s = Prng.sample_without_replacement r 5 10 in
  Alcotest.(check int) "five values" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> check_true "range" (x >= 0 && x < 10)) s

let test_prng_gaussian_moments () =
  let r = rng 17 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Prng.gaussian r) in
  let mean = Stats.mean xs in
  let stddev = sqrt (Stats.mean (List.map (fun x -> (x -. mean) *. (x -. mean)) xs)) in
  check_true "mean near 0" (Float.abs mean < 0.03);
  check_true "stddev near 1" (Float.abs (stddev -. 1.0) < 0.03)

let test_flt_comparisons () =
  check_true "approx_eq" (Flt.approx_eq 1.0 (1.0 +. 1e-12));
  check_false "not approx_eq" (Flt.approx_eq 1.0 1.1);
  check_true "lt" (Flt.lt 1.0 2.0);
  check_false "lt within tol" (Flt.lt 1.0 (1.0 +. 1e-12));
  check_true "le equal" (Flt.le 1.0 1.0);
  check_true "le slightly above" (Flt.le (1.0 +. 1e-12) 1.0)

let test_flt_sum_kahan () =
  (* Sum many tiny values against a large one; Kahan keeps full precision. *)
  let a = Array.make 10_001 1e-8 in
  a.(0) <- 1e8;
  check_float ~tol:1e-7 "kahan sum" (1e8 +. 1e-4) (Flt.sum a)

let test_flt_min_max () =
  check_float "max" 7.0 (Flt.max_array [| 3.0; -2.0; 7.0 |]);
  Alcotest.check_raises "empty max" (Invalid_argument "Flt.max_array: empty") (fun () ->
      ignore (Flt.max_array [||]))

let test_tablefmt () =
  let s =
    Gncg_util.Tablefmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "10"; "20" ] ]
  in
  check_true "has rule line" (String.length s > 0 && String.contains s '-');
  Alcotest.(check string) "float fmt" "1.5000" (Gncg_util.Tablefmt.fl 1.5);
  Alcotest.(check string) "inf fmt" "inf" (Gncg_util.Tablefmt.fl Float.infinity)

let suites =
  [
    ( "util.prng",
      [
        case "deterministic" test_prng_deterministic;
        case "split independent" test_prng_split_independent;
        case "int range" test_prng_int_range;
        case "int roughly uniform" test_prng_int_uniformish;
        case "copy preserves state" test_prng_copy;
        case "float range" test_prng_float_range;
        case "permutation" test_prng_permutation;
        case "sample without replacement" test_prng_sample;
        case "gaussian moments" test_prng_gaussian_moments;
      ] );
    ( "util.flt",
      [
        case "comparisons" test_flt_comparisons;
        case "kahan sum" test_flt_sum_kahan;
        case "min/max" test_flt_min_max;
      ] );
    ("util.tablefmt", [ case "render" test_tablefmt ]);
  ]
