(* Shared helpers for the test suites. *)

let approx ?(tol = 1e-6) a b = Gncg_util.Flt.approx_eq ~tol a b

let check_float ?(tol = 1e-6) name expected actual =
  if not (approx ~tol expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let check_true name b = Alcotest.(check bool) name true b

let check_false name b = Alcotest.(check bool) name false b

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  nl = 0
  ||
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

let rng seed = Gncg_util.Prng.create seed

(* Whether the profile's network connects every agent. *)
let network_connected host s =
  Gncg_graph.Connectivity.is_connected (Gncg.Network.graph host s)

(* A small random sparse connected graph for substrate tests. *)
let random_graph ?(wmin = 1.0) ?(wmax = 10.0) r n extra =
  let g = Gncg_graph.Wgraph.create n in
  for i = 1 to n - 1 do
    let j = Gncg_util.Prng.int r i in
    Gncg_graph.Wgraph.add_edge g i j (Gncg_util.Prng.float_in r wmin wmax)
  done;
  let added = ref 0 in
  while !added < extra do
    let u = Gncg_util.Prng.int r n and v = Gncg_util.Prng.int r n in
    if u <> v && not (Gncg_graph.Wgraph.has_edge g u v) then begin
      Gncg_graph.Wgraph.add_edge g u v (Gncg_util.Prng.float_in r wmin wmax);
      incr added
    end
  done;
  g

(* --- adversarial hosts ---

   One generator for every test of a rule that prunes behind a rounding
   margin (tight targets, insertion support, suspect sets, the stored
   distance tolerances): each entry builds an [n]-agent host at price
   [alpha] from [r]. *)

module I = Gncg_workload.Instances

(* The weight scales of the magnitude family: distances in metres of a
   continental fibre plan reach 10⁶ and more. *)
let magnitudes = [ 1048576.0; 1e6; 1e8; 1e10 ]

let host_of ~alpha n w = Gncg.Host.make ~alpha (Gncg_metric.Metric.make n w)

let adversarial_hosts r ~alpha =
  let module Prng = Gncg_util.Prng in
  List.map (fun (name, model) -> (name, fun n -> I.random_host r model ~n ~alpha)) I.named_models
  @ [
      ("all-ones", fun n -> host_of ~alpha n (fun _ _ -> 1.0));
      ("1-2", fun n -> Gncg.Host.make ~alpha (Gncg_metric.One_two.random r ~n ~p_one:0.5));
      (* Points on a line, four positions: many pairs coincide and weigh 0. *)
      ( "zero-weight line",
        fun n ->
          let p = Array.init n (fun _ -> float_of_int (Prng.int r 4)) in
          host_of ~alpha n (fun u v -> Float.abs (p.(u) -. p.(v))) );
      ( "four decades",
        fun n -> host_of ~alpha n (fun _ _ -> Float.pow 10.0 (Prng.float_in r (-2.0) 2.0)) );
      (* Vertices below [n / 3] form a part that no finite weight leaves. *)
      ( "disconnected part",
        fun n ->
          let cut = n / 3 in
          host_of ~alpha n (fun u v ->
              if u < cut <> (v < cut) then Float.infinity else Prng.float_in r 1.0 10.0) );
      (* Weights in [1, 10] times one of [magnitudes]. *)
      ( "magnitude",
        fun n ->
          let scale = List.nth magnitudes (Prng.int r (List.length magnitudes)) in
          host_of ~alpha n (fun _ _ -> scale *. Prng.float_in r 1.0 10.0) );
    ]

(* --- a specification of the dynamics loop ---

   [spec_dynamics] is [Dynamics.run]'s loop without its shortcuts: the
   same slots and the same [Random_order] draws (one per slot, idle
   agents included), each activation through [attempt], every idle mark
   cleared after each move, and revisits confirmed by [Strategy.equal]
   (candidates are looked up by the injective [Strategy.canonical_key],
   never by the engine's pair hash).  [attempt s u] returns the moved
   profile, the gain and the mover's cost before the move.  [rounds] is
   [slot / n] at convergence, which may exceed the engine's: the engine
   keeps provably idle agents idle across a move. *)
let spec_dynamics ~attempt ~max_steps scheduler start =
  let module Dyn = Gncg.Dynamics in
  let module S = Gncg.Strategy in
  let n = S.n start in
  let seen = Hashtbl.create 97 in
  Hashtbl.add seen (S.canonical_key start) start;
  let trace = ref [ start ] and steps = ref [] in
  let idle = Array.make n false and idle_count = ref 0 in
  let rec go s slot =
    if !idle_count >= n then
      Dyn.Converged { profile = s; rounds = slot / n; steps = List.rev !steps }
    else if slot >= max_steps then Dyn.Out_of_steps { profile = s; steps = List.rev !steps }
    else
      let u =
        match scheduler with
        | Dyn.Round_robin -> slot mod n
        | Dyn.Random_order r -> Gncg_util.Prng.int r n
      in
      if idle.(u) then go s (slot + 1)
      else
        match attempt s u with
        | None ->
          idle.(u) <- true;
          incr idle_count;
          go s (slot + 1)
        | Some (s', gain, before) ->
          steps := { Dyn.mover = u; before_cost = before; after_cost = before -. gain } :: !steps;
          let key = S.canonical_key s' in
          if List.exists (S.equal s') (Hashtbl.find_all seen key) then begin
            let rec take acc = function
              | [] -> acc
              | p :: rest -> if S.equal p s' then p :: acc else take (p :: acc) rest
            in
            Dyn.Cycle { profiles = take [] !trace @ [ s' ]; steps = List.rev !steps }
          end
          else begin
            Hashtbl.add seen key s';
            trace := s' :: !trace;
            Array.fill idle 0 n false;
            idle_count := 0;
            go s' (slot + 1)
          end
  in
  go start 0

(* The stateless loop: every move from [Dynamics.deviation], the mover's
   cost from [Cost.agent_cost]. *)
let stateless_dynamics ~max_steps rule scheduler host start =
  spec_dynamics ~max_steps scheduler start ~attempt:(fun s u ->
      Option.map
        (fun (s', gain) -> (s', gain, Gncg.Cost.agent_cost host s u))
        (Gncg.Dynamics.deviation rule host s u))

(* The same movers, and costs bit for bit or, with [~ulps], within
   [ulps] units in the last place.  The stateful engine prices a move
   from its maintained rows and the stateless scan from a fresh network:
   the sums run in different orders, so on float-weighted hosts their
   step costs can differ in the last bits while every pick agrees.  On
   integer-weighted hosts both sums are exact. *)
let same_steps ?(ulps = 0) (a : Gncg.Dynamics.step list) (b : Gncg.Dynamics.step list) =
  let close x y =
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    || ulps > 0
       && Float.abs (x -. y) <= float ulps *. epsilon_float *. Float.max (Float.abs x) (Float.abs y)
  in
  List.length a = List.length b
  && List.for_all2
       (fun (x : Gncg.Dynamics.step) (y : Gncg.Dynamics.step) ->
         x.mover = y.mover && close x.before_cost y.before_cost && close x.after_cost y.after_cost)
       a b

(* The [~ulps] the equivalence tests grant float-weighted hosts; the
   largest gap measured on [gncg sweep]'s setups at n = 14 and 24 is
   under 3 ulps. *)
let float_ulps = 16

(* The same outcome constructor, the same steps ([same_steps]) and equal
   profiles; [rounds] is not compared (see [spec_dynamics]). *)
let same_trajectory ?ulps a b =
  let module Dyn = Gncg.Dynamics in
  let module S = Gncg.Strategy in
  match (a, b) with
  | Dyn.Converged { profile = p1; steps = s1; _ }, Dyn.Converged { profile = p2; steps = s2; _ }
  | Dyn.Out_of_steps { profile = p1; steps = s1 }, Dyn.Out_of_steps { profile = p2; steps = s2 } ->
    S.equal p1 p2 && same_steps ?ulps s1 s2
  | Dyn.Cycle { profiles = ps1; steps = s1 }, Dyn.Cycle { profiles = ps2; steps = s2 } ->
    List.length ps1 = List.length ps2
    && List.for_all2 S.equal ps1 ps2
    && same_steps ?ulps s1 s2
  | _ -> false
