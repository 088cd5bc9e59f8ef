(* The unified execution API (Gncg_util.Exec): the domain count, the
   Seq/Par combinators and the domain loop under them. *)

module Exec = Gncg_util.Exec

let host_of_seed ~n seed =
  let rng = Gncg_util.Prng.create (1 + seed) in
  Gncg.Host.make ~alpha:2.0
    (Gncg_metric.Random_host.uniform_metric rng ~n ~lo:1.0 ~hi:5.0)

let instance ~n seed =
  let host = host_of_seed ~n seed in
  let rng = Gncg_util.Prng.create (1000 + seed) in
  (host, Gncg_workload.Instances.random_profile rng host)

let test_domain_count () =
  Alcotest.(check int) "Seq is one domain" 1 (Exec.domain_count Exec.Seq);
  Alcotest.(check int) "explicit Par count" 4
    (Exec.domain_count (Exec.Par { domains = Some 4 }));
  Alcotest.(check int) "Par None follows the process default"
    (Exec.default_domains ())
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
      Alcotest.(check bool) "for_all finds the counterexample" false
        (Exec.for_all ~exec n (fun i -> f i <> 10)))
    [ Exec.Seq; Exec.Par { domains = Some 3 } ]

(* Four domains claim from 5,000 indices: every index runs exactly once,
   under [init] and under a [for_all] that never exits early. *)
let test_every_index_once () =
  let n = 5000 in
  let exec = Exec.par ~domains:4 () in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  let once label =
    Array.iteri
      (fun i c ->
        if Atomic.get c <> 1 then
          Alcotest.failf "%s: index %d ran %d times" label i (Atomic.get c);
        Atomic.set c 0)
      counts
  in
  let result = Exec.init ~exec n (fun i -> Atomic.incr counts.(i); i) in
  once "init";
  Alcotest.(check bool) "init keeps index order" true (result = Array.init n Fun.id);
  Alcotest.(check bool) "for_all holds" true
    (Exec.for_all ~exec n (fun i -> Atomic.incr counts.(i); true));
  once "for_all"

(* An exception on any domain reaches the caller after the join. *)
let test_exception_propagates () =
  let exec = Exec.par ~domains:3 () in
  match Exec.init ~exec 100 (fun i -> if i = 57 then failwith "index 57" else i) with
  | _ -> Alcotest.fail "the raising index was swallowed"
  | exception Failure msg -> Alcotest.(check string) "the raised exception" "index 57" msg

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
        Alcotest.test_case "domain_count" `Quick test_domain_count;
        Alcotest.test_case "combinators vs sequential" `Quick test_combinators;
        Alcotest.test_case "every index exactly once" `Quick test_every_index_once;
        Alcotest.test_case "exceptions reach the caller" `Quick test_exception_propagates;
      ]
      @ [
          QCheck_alcotest.to_alcotest prop_seq_par_agree;
          QCheck_alcotest.to_alcotest prop_tracker_evaluators_agree;
        ] );
  ]
