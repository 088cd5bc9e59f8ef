open Helpers
module Fl = Gncg.Facility_location
module Prng = Gncg_util.Prng

let random_instance ?(forced = false) r nf nc =
  let open_cost = Array.init nf (fun _ -> Prng.float r 10.0) in
  let service = Array.init nf (fun _ -> Array.init nc (fun _ -> Prng.float r 10.0)) in
  let forced_open =
    Array.init nf (fun _ -> forced && Prng.coin r 0.3)
  in
  Array.iteri (fun f b -> if b then open_cost.(f) <- 0.0) forced_open;
  Fl.make ~forced_open ~open_cost ~service ()

let brute_force inst =
  let nf = Fl.num_facilities inst in
  let best = ref Float.infinity in
  let best_set = ref (Array.make nf false) in
  for mask = 0 to (1 lsl nf) - 1 do
    let set = Array.init nf (fun f -> mask land (1 lsl f) <> 0) in
    let c = Fl.cost inst set in
    if c < !best then begin
      best := c;
      best_set := set
    end
  done;
  (!best_set, !best)

let test_cost_definition () =
  let inst =
    Fl.make ~open_cost:[| 5.0; 1.0 |]
      ~service:[| [| 1.0; 4.0 |]; [| 3.0; 2.0 |] |]
      ()
  in
  check_float "both open" (5.0 +. 1.0 +. 1.0 +. 2.0) (Fl.cost inst [| true; true |]);
  check_float "first only" (5.0 +. 1.0 +. 4.0) (Fl.cost inst [| true; false |]);
  check_true "none open is infeasible" (Fl.cost inst [| false; false |] = Float.infinity)

let test_forced_open () =
  let inst =
    Fl.make
      ~forced_open:[| true; false |]
      ~open_cost:[| 0.0; 1.0 |]
      ~service:[| [| 1.0 |]; [| 0.5 |] |]
      ()
  in
  check_true "closing forced facility infeasible"
    (Fl.cost inst [| false; true |] = Float.infinity);
  let set, _ = Fl.solve_exact inst in
  check_true "exact keeps forced open" set.(0)

let test_exact_vs_brute_force () =
  let r = rng 100 in
  for trial = 1 to 20 do
    let nf = 2 + Prng.int r 7 and nc = 1 + Prng.int r 8 in
    let inst = random_instance r nf nc in
    let _, exact = Fl.solve_exact inst in
    let _, brute = brute_force inst in
    if not (approx ~tol:1e-9 exact brute) then
      Alcotest.failf "trial %d: exact=%g brute=%g" trial exact brute
  done

let test_exact_with_forced_vs_brute_force () =
  let r = rng 101 in
  for trial = 1 to 15 do
    let nf = 2 + Prng.int r 6 and nc = 1 + Prng.int r 6 in
    let inst = random_instance ~forced:true r nf nc in
    let _, exact = Fl.solve_exact inst in
    let _, brute = brute_force inst in
    if not (approx ~tol:1e-9 exact brute) then
      Alcotest.failf "trial %d: exact=%g brute=%g" trial exact brute
  done

let test_local_search_fixpoint () =
  let r = rng 102 in
  for _ = 1 to 10 do
    let inst = random_instance r 8 8 in
    let set, cost = Fl.local_search inst in
    check_float ~tol:1e-9 "reported cost is correct" (Fl.cost inst set) cost;
    check_true "no improving step left" (Fl.improve_step inst set = None)
  done

let test_local_search_3_approx_on_metric () =
  (* Arya et al.: the locality gap on metric instances is 3; verify the
     bound holds on random metric service costs (clients = points,
     facilities = points, metric distances). *)
  let r = rng 103 in
  for _ = 1 to 10 do
    let n = 7 in
    let pts = Gncg_metric.Euclidean.random_uniform r ~n:(2 * n) ~d:2 ~lo:0.0 ~hi:10.0 in
    let service =
      Array.init n (fun f ->
          Array.init n (fun c -> Gncg_metric.Euclidean.dist L2 pts.(f) pts.(n + c)))
    in
    let open_cost = Array.init n (fun _ -> Prng.float r 5.0) in
    let inst = Fl.make ~open_cost ~service () in
    let _, ls = Fl.local_search inst in
    let _, opt = Fl.solve_exact inst in
    check_true "local search within locality gap 3" (ls <= (3.0 *. opt) +. 1e-6)
  done

let test_infinite_costs_handled () =
  let inst =
    Fl.make
      ~open_cost:[| Float.infinity; 2.0 |]
      ~service:[| [| 1.0 |]; [| Float.infinity |] |]
      ()
  in
  let _, cost = Fl.solve_exact inst in
  check_true "best is infinite (unservable client)" (cost = Float.infinity);
  let _, ls_cost = Fl.local_search inst in
  check_true "local search does not NaN" (Float.is_nan ls_cost = false)

let test_empty_instance () =
  let inst = Fl.make ~open_cost:[||] ~service:[||] () in
  let set, cost = Fl.solve_exact inst in
  Alcotest.(check int) "no facilities" 0 (Array.length set);
  check_float "zero cost" 0.0 cost

(* The branch-and-bound as it was before the dual-ascent bound and the
   undo trail, verbatim but for the incumbent, which [start] may supply:
   the specification [Fl.solve_exact] must match set for set and bit for
   bit. *)
let spec_solve_exact ?start (inst : Fl.instance) =
  let nf = Fl.num_facilities inst and nc = Fl.num_clients inst in
  if nf = 0 then ([||], if nc = 0 then 0.0 else Float.infinity)
  else begin
    (* Suffix minima of service cost per client over facilities >= i:
       the admissible-heuristic part of the branch-and-bound lower bound. *)
    let suffix = Array.make_matrix (nf + 1) nc Float.infinity in
    for f = nf - 1 downto 0 do
      for c = 0 to nc - 1 do
        suffix.(f).(c) <- Float.min inst.service.(f).(c) suffix.(f + 1).(c)
      done
    done;
    let incumbent_set, incumbent_cost =
      match start with Some start -> start | None -> Fl.local_search inst
    in
    let best_set = ref (Array.copy incumbent_set) in
    let best_cost = ref incumbent_cost in
    let open_set = Array.make nf false in
    let best_served = Array.make nc Float.infinity in
    (* DFS over facility indices; [opened] is the running opening cost and
       [best_served] the per-client best over currently-opened ones. *)
    let rec dfs f opened =
      if f = nf then begin
        let total = ref opened in
        for c = 0 to nc - 1 do
          total := !total +. best_served.(c)
        done;
        if Gncg_util.Flt.lt !total !best_cost then begin
          best_cost := !total;
          best_set := Array.copy open_set
        end
      end
      else begin
        let bound = ref opened in
        for c = 0 to nc - 1 do
          bound := !bound +. Float.min best_served.(c) suffix.(f).(c)
        done;
        if Gncg_util.Flt.lt !bound !best_cost then begin
          (* Branch 1: open facility f (unless its cost already dooms us). *)
          if inst.open_cost.(f) < Float.infinity then begin
            let saved = Array.copy best_served in
            open_set.(f) <- true;
            for c = 0 to nc - 1 do
              if inst.service.(f).(c) < best_served.(c) then
                best_served.(c) <- inst.service.(f).(c)
            done;
            dfs (f + 1) (opened +. inst.open_cost.(f));
            open_set.(f) <- false;
            Array.blit saved 0 best_served 0 nc
          end;
          (* Branch 2: keep f closed (forbidden for forced facilities). *)
          if not inst.forced_open.(f) then dfs (f + 1) opened
        end
      end
    in
    dfs 0 0.0;
    (!best_set, !best_cost)
  end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let matches_spec ?start inst =
  let set, cost = Fl.solve_exact ?start inst in
  let spec_set, spec_cost = spec_solve_exact ?start inst in
  set = spec_set && same_bits cost spec_cost

(* Random instances with up to 14 facilities.  Costs are drawn as
   integers (ties everywhere), as fractions, or across four decades (the
   order of a sum shows in its bits); a third of the draws forces
   facilities open, and a third makes some opening and service costs
   infinite. *)
let random_fl_instance seed =
  let r = rng (seed + 900) in
  let nf = 1 + Prng.int r 14 and nc = 1 + Prng.int r 14 in
  let draw =
    match Prng.int r 3 with
    | 0 -> fun () -> float_of_int (Prng.int r 6)
    | 1 -> fun () -> Prng.float r 10.0
    | _ -> fun () -> Float.pow 10.0 (Prng.float_in r (-2.0) 2.0)
  in
  let flavour = Prng.int r 3 in
  let inf_or x = if flavour = 2 && Prng.coin r 0.15 then Float.infinity else x in
  let open_cost = Array.init nf (fun _ -> inf_or (draw ())) in
  let service = Array.init nf (fun _ -> Array.init nc (fun _ -> inf_or (draw ()))) in
  let forced_open = Array.init nf (fun _ -> flavour = 1 && Prng.coin r 0.3) in
  Array.iteri (fun f b -> if b then open_cost.(f) <- 0.0) forced_open;
  Fl.make ~forced_open ~open_cost ~service ()

(* Agent [u]'s instance in a random game of up to 15 agents on one of the
   default host models (1-inf hosts among them). *)
let random_umfl_instance seed =
  let r = rng (seed + 1900) in
  let n = 2 + Prng.int r 14 in
  let models = Gncg_workload.Instances.default_models in
  let model = List.nth models (Prng.int r (List.length models)) in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha:(0.3 +. Prng.float r 4.0) in
  let s = Gncg_workload.Instances.random_profile r host in
  fst (Gncg.Best_response.umfl_instance host s (Prng.int r n))

(* No incumbent at all: every set is an improvement until the search
   finds one, so every node a bound prunes is one that could matter. *)
let cold inst = (Array.make (Fl.num_facilities inst) false, Float.infinity)

(* Incumbents a few ulps above the optimum plus the game tolerance at
   the optimum ([Flt.tol]): the optimum still beats each of them, but
   only just, so a bound that rounds above the leaf totals it stands for
   (the dual-ascent bound without its rounding margin) would prune the
   optimum away. *)
let matches_spec_near_optimum inst =
  let _, opt = spec_solve_exact ~start:(cold inst) inst in
  (not (Float.is_finite opt))
  ||
  let closed = fst (cold inst) in
  let rec go c k =
    k = 0 || (matches_spec ~start:(closed, c) inst && go (Float.succ c) (k - 1))
  in
  go (opt +. Gncg_util.Flt.tol opt opt) 40

let qtest ?(count = 60) name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name QCheck.small_nat prop)

let suites =
  [
    ( "facility-location",
      [
        case "cost definition" test_cost_definition;
        case "forced-open facilities" test_forced_open;
        case "exact = brute force" test_exact_vs_brute_force;
        case "exact with forced = brute force" test_exact_with_forced_vs_brute_force;
        case "local search reaches fixpoint" test_local_search_fixpoint;
        case "local search within locality gap" test_local_search_3_approx_on_metric;
        case "infinite costs" test_infinite_costs_handled;
        case "empty instance" test_empty_instance;
        qtest ~count:300 "exact = spec on random instances (bits)" (fun seed ->
            matches_spec (random_fl_instance seed));
        qtest ~count:150 "exact = spec on best-response instances (bits)" (fun seed ->
            matches_spec (random_umfl_instance seed));
        qtest ~count:300 "exact = spec from no incumbent (bits)" (fun seed ->
            let inst = random_fl_instance seed in
            matches_spec ~start:(cold inst) inst);
        qtest ~count:150 "exact = spec from no incumbent, best-response instances (bits)"
          (fun seed ->
            let inst = random_umfl_instance seed in
            matches_spec ~start:(cold inst) inst);
        qtest ~count:100 "exact = spec from incumbents just above the optimum (bits)"
          (fun seed -> matches_spec_near_optimum (random_fl_instance seed));
      ] );
  ]
