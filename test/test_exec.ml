(* The unified execution API (Gncg_util.Exec): parsing and the Seq/Par
   combinators.  (The extensional-equality properties for the PR-4
   [_parallel] aliases lived here until the aliases were deleted.) *)

module Exec = Gncg_util.Exec

let host_of_seed ~n seed =
  let rng = Gncg_util.Prng.create (1 + seed) in
  Gncg.Host.make ~alpha:2.0
    (Gncg_metric.Random_host.uniform_metric rng ~n ~lo:1.0 ~hi:5.0)

let instance ~n seed =
  let host = host_of_seed ~n seed in
  let rng = Gncg_util.Prng.create (1000 + seed) in
  (host, Gncg_workload.Instances.random_profile rng host)

let test_of_string () =
  let ok s e = Alcotest.(check bool) s true (Exec.of_string s = Ok e) in
  ok "seq" Exec.Seq;
  ok "par" (Exec.Par { domains = None });
  ok "par:3" (Exec.Par { domains = Some 3 });
  let bad s =
    Alcotest.(check bool) (s ^ " rejected") true
      (match Exec.of_string s with Error _ -> true | Ok _ -> false)
  in
  bad "par:0";
  bad "par:-2";
  bad "par:x";
  bad "sequential";
  List.iter
    (fun e ->
      Alcotest.(check bool)
        ("roundtrip " ^ Exec.to_string e)
        true
        (Exec.of_string (Exec.to_string e) = Ok e))
    [ Exec.Seq; Exec.par (); Exec.par ~domains:5 () ]

let test_domain_count () =
  Alcotest.(check int) "Seq is one domain" 1 (Exec.domain_count Exec.Seq);
  Alcotest.(check int) "explicit Par count" 4
    (Exec.domain_count (Exec.Par { domains = Some 4 }));
  Alcotest.(check int) "Par None follows the process default"
    (Gncg_util.Parallel.default_domains ())
    (Exec.domain_count (Exec.Par { domains = None }))

let test_combinators () =
  let n = 103 in
  let f i = (i * 37) mod 11 in
  List.iter
    (fun exec ->
      Alcotest.(check bool) "init agrees with Array.init" true
        (Exec.init ~exec n f = Array.init n f);
      Alcotest.(check bool) "for_all agrees" true
        (Exec.for_all ~exec n (fun i -> f i < 11));
      Alcotest.(check bool) "exists agrees" true
        (Exec.exists ~exec n (fun i -> f i = 10)
        = Array.exists (fun x -> x = 10) (Array.init n f)))
    [ Exec.Seq; Exec.Par { domains = Some 3 } ]

(* Seq and Par must agree on every boolean/structural verdict. *)
let prop_seq_par_agree =
  QCheck.Test.make ~count:15 ~name:"Seq and Par verdicts agree"
    QCheck.(pair (int_range 5 10) small_nat)
    (fun (n, seed) ->
      let host, s = instance ~n seed in
      let par = Exec.Par { domains = Some 3 } in
      Gncg.Equilibrium.is_ge host s = Gncg.Equilibrium.is_ge ~exec:par host s
      && Gncg.Equilibrium.unhappy_agents Gncg.Equilibrium.GE host s
         = Gncg.Equilibrium.unhappy_agents ~exec:par Gncg.Equilibrium.GE host s)

(* The stateful tracker must report exactly the stateless scan's
   unhappy agents. *)
let prop_tracker_evaluators_agree =
  QCheck.Test.make ~count:15 ~name:"tracker evaluators agree"
    QCheck.(pair (int_range 5 10) small_nat)
    (fun (n, seed) ->
      let host, s = instance ~n seed in
      let tracker =
        Gncg.Equilibrium.Tracker.create Gncg.Equilibrium.GE (Gncg.Net_state.create host s)
      in
      let stateless = Gncg.Equilibrium.unhappy_agents Gncg.Equilibrium.GE host s in
      Gncg.Equilibrium.Tracker.unhappy tracker = stateless
      && Gncg.Equilibrium.Tracker.is_equilibrium tracker = (stateless = []))

let suites =
  [
    ( "exec",
      [
        Alcotest.test_case "of_string / to_string" `Quick test_of_string;
        Alcotest.test_case "domain_count" `Quick test_domain_count;
        Alcotest.test_case "combinators vs sequential" `Quick test_combinators;
      ]
      @ [
          QCheck_alcotest.to_alcotest prop_seq_par_agree;
          QCheck_alcotest.to_alcotest prop_tracker_evaluators_agree;
        ] );
  ]
