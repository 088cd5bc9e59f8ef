(* Properties of the flat distance storage, the streaming kernels, the
   Changed_rows reports, and the dirty-agent skipping built on them.
   Change reports are compared bitwise against before/after matrix
   diffs: the report must name exactly the rows that differ. *)

module Prng = Gncg_util.Prng
module Flt = Gncg_util.Flt
module Wgraph = Gncg_graph.Wgraph
module Dijkstra = Gncg_graph.Dijkstra
module Incr_apsp = Gncg_graph.Incr_apsp
module Changed_rows = Gncg_graph.Changed_rows
module Strategy = Gncg.Strategy
module Metric = Gncg_metric.Metric

let seed_gen = QCheck.small_nat

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let random_connected_graph r n =
  let g = Wgraph.create n in
  let order = Prng.permutation r n in
  for i = 1 to n - 1 do
    Wgraph.add_edge g order.(i) order.(Prng.int r i) (Prng.float_in r 0.5 9.0)
  done;
  for _ = 1 to n do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && not (Wgraph.has_edge g u v) then
      Wgraph.add_edge g u v (Prng.float_in r 0.5 9.0)
  done;
  g

(* --- insertions vs reference --- *)

let prop_insertions_match_reference seed =
  let r = Prng.create (seed + 301) in
  let n = 4 + Prng.int r 8 in
  let g = random_connected_graph r n in
  let m = Incr_apsp.of_graph g in
  let ok = ref true in
  for _ = 1 to 6 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && not (Wgraph.has_edge g u v) then begin
      let w = Prng.float_in r 0.5 9.0 in
      Wgraph.add_edge g u v w;
      ignore (Incr_apsp.add_edge m u v w)
    end
  done;
  let reference = Dijkstra.apsp g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if not (Flt.approx_eq ~tol:1e-6 (Incr_apsp.distance m u v) reference.(u).(v)) then
        ok := false
    done
  done;
  !ok

(* --- Changed_rows reports are exact (= the bitwise row diff) --- *)

let changed_report_is_exact before after report =
  let n = Array.length before in
  let ok = ref true in
  for u = 0 to n - 1 do
    let differs = before.(u) <> after.(u) in
    if differs <> Changed_rows.mem report u then ok := false
  done;
  !ok

let counter name =
  match Gncg_obs.Metric.find_counter name with
  | Some c -> Gncg_obs.Metric.Counter.value c
  | None -> 0

(* A deletion recomputes at most one row per source, and reports exactly
   the rows that differ. *)
let prop_changed_rows_exact seed =
  let r = Prng.create (seed + 302) in
  let n = 4 + Prng.int r 9 in
  let incr = Incr_apsp.of_graph (random_connected_graph r n) in
  let g = Incr_apsp.graph incr in
  let ok = ref true in
  Gncg_obs.Obs.set_profiling true;
  Fun.protect ~finally:(fun () -> Gncg_obs.Obs.set_profiling false) @@ fun () ->
  for _ = 1 to 10 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then begin
      let before = Incr_apsp.matrix incr in
      let report =
        if Wgraph.has_edge g u v then begin
          let rows0 = counter "incr_apsp.deletion_rows_recomputed" in
          let rep = Incr_apsp.remove_edge incr u v in
          if counter "incr_apsp.deletion_rows_recomputed" - rows0 > n then ok := false;
          rep
        end
        else Incr_apsp.add_edge incr u v (Prng.float_in r 0.5 9.0)
      in
      if not (changed_report_is_exact before (Incr_apsp.matrix incr) report) then
        ok := false
    end
  done;
  !ok

(* --- the Float.min references ---

   The distance kernels take minima by compare-select, which returns
   [Float.min]'s bits on distances (never NaN, never -0).  These
   references keep the stdlib [Float.min] and every other operation of
   the kernels, so a kernel must match them bit for bit. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Σ_i min(a_i, w + b_i): Kahan-compensated, and any infinite term makes
   the sum infinite without reaching the compensation. *)
let sum_min_add a w b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "sum_min_add: length mismatch";
  let s = ref 0.0 and c = ref 0.0 in
  let any_inf = ref false in
  for i = 0 to n - 1 do
    let m = Float.min a.(i) (w +. b.(i)) in
    if m = Float.infinity then any_inf := true
    else begin
      let y = m -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t
    end
  done;
  if !any_inf then Float.infinity else !s

(* The insertion update of edge (u,v,w) on a boxed matrix: every pair
   relaxed through the edge in either direction, against snapshots of
   rows u and v. *)
let relax_reference m u v w =
  let n = Array.length m in
  if w < m.(u).(v) then begin
    let du = Array.copy m.(u) and dv = Array.copy m.(v) in
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        let best = Float.min m.(x).(y) (Float.min (du.(x) +. w +. dv.(y)) (dv.(x) +. w +. du.(y))) in
        if best < m.(x).(y) then m.(x).(y) <- best
      done
    done
  end

(* The deletion update: the rows on which the edge was tight (engine
   tolerance) recomputed on the edited graph by the SSSP kernel. *)
let remove_reference m g u v w =
  let adj = Gncg_graph.Flat_adj.of_wgraph g in
  Array.iteri
    (fun s row ->
      if Flt.approx_eq (row.(u) +. w) row.(v) || Flt.approx_eq (row.(v) +. w) row.(u) then
        Gncg_graph.Flat_adj.sssp_into adj s row)
    m

let matrices_bitwise a b =
  Array.for_all2 (fun ra rb -> Array.for_all2 same_bits ra rb) a b

(* A sparse graph that is often disconnected: a random forest plus a
   few extra edges, so matrices carry infinite entries. *)
let random_sparse_graph r n =
  let g = Wgraph.create n in
  for i = 1 to n - 1 do
    if Prng.int r 4 > 0 then Wgraph.add_edge g i (Prng.int r i) (Prng.float_in r 0.5 9.0)
  done;
  for _ = 1 to n / 3 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v && not (Wgraph.has_edge g u v) then
      Wgraph.add_edge g u v (Prng.float_in r 0.5 9.0)
  done;
  g

(* After every add or remove of a random sequence, the maintained matrix
   is bitwise the Float.min reference, and before every add the fused
   total is bitwise both the reference's sum after the add and [total]
   after the materialized add.  The sequences are long enough that
   deletions meet rows which earlier insertions left ulps away from a
   fresh Dijkstra pass: the store settles those from their stored values,
   the reference recomputes them in full. *)
let prop_incr_apsp_matches_float_min seed =
  let r = Prng.create (seed + 305) in
  let n = 3 + Prng.int r 38 in
  let incr = Incr_apsp.of_graph (random_sparse_graph r n) in
  let g = Incr_apsp.graph incr in
  let reference = Incr_apsp.matrix incr in
  let ok = ref true in
  for _ = 1 to 60 do
    let u = Prng.int r n and v = Prng.int r n in
    if u <> v then begin
      (match Wgraph.weight g u v with
      | Some w ->
        ignore (Incr_apsp.remove_edge incr u v);
        remove_reference reference g u v w
      | None ->
        let w = Prng.float_in r 0.5 9.0 in
        let fused = Incr_apsp.total_with_edge_added incr u v w in
        ignore (Incr_apsp.add_edge incr u v w);
        relax_reference reference u v w;
        let flat = Array.concat (Array.to_list reference) in
        if not (same_bits fused (Flt.sum flat) && same_bits fused (Incr_apsp.total incr))
        then ok := false);
      if not (matrices_bitwise (Incr_apsp.matrix incr) reference) then ok := false
    end
  done;
  !ok

(* A caller-held row with some infinite entries, like a deletion
   what-if that disconnects. *)
let held_row r n =
  Array.init n (fun _ -> if Prng.int r 5 = 0 then Float.infinity else Prng.float_in r 0.0 30.0)

(* The streaming insertion kernels against the reference on the live
   rows, disconnected graphs included: Σ_x min(d(u,x), w + d(v,x)) and
   Σ_x min(r(x), w + d(v,x)) for a caller row with infinite entries. *)
let prop_insertion_kernels_match_float_min seed =
  let r = Prng.create (seed + 306) in
  let n = 2 + Prng.int r 12 in
  let incr = Incr_apsp.of_graph (random_sparse_graph r n) in
  let ok = ref true in
  for _ = 1 to 8 do
    let u = Prng.int r n and v = Prng.int r n in
    let w = Prng.float_in r 0.0 9.0 in
    let row_v = Incr_apsp.row incr v in
    if
      not
        (same_bits
           (Incr_apsp.dist_sum_with_edge incr u v w)
           (sum_min_add (Incr_apsp.row incr u) w row_v))
    then ok := false;
    let held = held_row r n in
    if not (same_bits (Incr_apsp.min_sum_against incr held v w) (sum_min_add held w row_v))
    then ok := false
  done;
  !ok

(* The batched insertion sum is the single-target kernel, bit for bit,
   for every k in 0..9 (every remainder mod 4).  The graph is often
   disconnected and some weights are infinite, so infinite lanes sit
   among finite ones.  Entries from k on are left alone, and the store
   counts one add kernel per sum. *)
let prop_batched_sums_match_single seed =
  let r = Prng.create (seed + 809) in
  let n = 2 + Prng.int r 14 in
  let incr = Incr_apsp.of_graph (random_sparse_graph r n) in
  let kernels () =
    match Gncg_obs.Metric.find_counter "incr_apsp.add_kernels" with
    | Some c -> Gncg_obs.Metric.Counter.value c
    | None -> 0
  in
  Gncg_obs.Obs.set_profiling true;
  Fun.protect
    ~finally:(fun () -> Gncg_obs.Obs.set_profiling false)
    (fun () ->
      List.for_all
        (fun k ->
          let u = Prng.int r n in
          let targets = Array.init (k + 2) (fun _ -> Prng.int r n) in
          let weights =
            Array.init (k + 2) (fun _ ->
                if Prng.int r 6 = 0 then Float.infinity else Prng.float_in r 0.0 9.0)
          in
          let out = Array.make (k + 2) Float.nan in
          let before = kernels () in
          Incr_apsp.dist_sums_with_edges incr u targets weights k out;
          kernels () - before = k
          && List.for_all
               (fun i ->
                 if i < k then
                   same_bits out.(i)
                     (Incr_apsp.dist_sum_with_edge incr u targets.(i) weights.(i))
                 else Float.is_nan out.(i))
               (List.init (k + 2) Fun.id))
        (List.init 10 Fun.id))

(* --- streaming min-sum reference vs the materialized sum --- *)

let prop_sum_min_add_matches_naive seed =
  let r = Prng.create (seed + 303) in
  let n = 1 + Prng.int r 40 in
  let gen_row () =
    Array.init n (fun _ ->
        if Prng.int r 8 = 0 then Float.infinity else Prng.float_in r 0.0 50.0)
  in
  let a = gen_row () and b = gen_row () in
  let w = Prng.float_in r 0.0 10.0 in
  let naive = Flt.sum (Array.init n (fun i -> Float.min a.(i) (w +. b.(i)))) in
  let streamed = sum_min_add a w b in
  if naive = Float.infinity || streamed = Float.infinity then naive = streamed
  else Flt.approx_eq ~tol:1e-9 naive streamed

let prop_dist_sum_with_edge_matches seed =
  let r = Prng.create (seed + 304) in
  let n = 4 + Prng.int r 8 in
  let incr = Incr_apsp.of_graph (random_connected_graph r n) in
  let u = Prng.int r n and v = Prng.int r n in
  let w = Prng.float_in r 0.5 9.0 in
  u = v
  || same_bits
       (Incr_apsp.dist_sum_with_edge incr u v w)
       (sum_min_add (Incr_apsp.row incr u) w (Incr_apsp.row incr v))

(* --- infinity propagation through the fused total --- *)

let test_total_with_edge_added_infinity () =
  let g = Wgraph.create 4 in
  Wgraph.add_edge g 0 1 1.0;
  Wgraph.add_edge g 2 3 1.0;
  let m = Incr_apsp.of_graph g in
  Alcotest.(check bool) "disconnected total" true (Incr_apsp.total m = Float.infinity);
  (* Bridging the components makes every pair finite; the fused total
     must agree with the materialized update. *)
  let fused = Incr_apsp.total_with_edge_added m 1 2 2.0 in
  let bridged = Incr_apsp.copy m in
  ignore (Incr_apsp.add_edge bridged 1 2 2.0);
  Alcotest.(check bool) "bridged total finite" true (Float.is_finite fused);
  Alcotest.(check (float 0.0)) "fused = materialized" (Incr_apsp.total bridged) fused;
  (* A useless edge leaves the total infinite. *)
  Alcotest.(check bool)
    "parallel edge keeps inf" true
    (Incr_apsp.total_with_edge_added m 0 1 5.0 = Float.infinity)

(* --- the deterministic star instance for the skipping guarantees ---

   Host: star pairs (0,i) of weight 1, one leaf pair (1,2) of weight 1.5,
   every other pair infinite; alpha = 0.1; profile = center 0 owns the
   star.  Buying (1,2) is the only improving add (gain 0.35 for either
   endpoint); it changes the distance rows of 1 and 2 only, so agents
   3..5 and the center are provably unaffected. *)

let star_instance () =
  let n = 6 in
  let w u v =
    if u = 0 || v = 0 then 1.0
    else if (u, v) = (1, 2) || (v, u) = (1, 2) then 1.5
    else Float.infinity
  in
  let host = Gncg.Host.make ~alpha:0.1 (Metric.make n w) in
  let s = Strategy.of_lists n [ (0, [ 1; 2; 3; 4; 5 ]) ] in
  (host, s)

let test_tracker_partial_refresh () =
  let host, s = star_instance () in
  let st = Gncg.Net_state.create host s in
  let tr = Gncg.Equilibrium.Tracker.create Gncg.Equilibrium.AE st in
  Alcotest.(check (list int)) "initial unhappy" [ 1; 2 ] (Gncg.Equilibrium.Tracker.unhappy tr);
  ignore (Gncg.Net_state.apply_move st ~agent:1 (Gncg.Move.Add 2));
  Gncg.Equilibrium.Tracker.refresh tr;
  let reevaluated = Gncg.Equilibrium.Tracker.last_reevaluated tr in
  (* Strictly fewer than n agents re-examined after one local move... *)
  Alcotest.(check bool) "refresh < n" true (reevaluated < Strategy.n s);
  Alcotest.(check int) "exactly the dirty agents" 2 reevaluated;
  (* ...and the cached verdicts are byte-identical to a full rescan. *)
  let fresh =
    Gncg.Equilibrium.Tracker.create Gncg.Equilibrium.AE (Gncg.Net_state.copy st)
  in
  Alcotest.(check (list int))
    "refresh = full rescan"
    (Gncg.Equilibrium.Tracker.unhappy fresh)
    (Gncg.Equilibrium.Tracker.unhappy tr);
  Alcotest.(check (list int))
    "tracker = reference scan"
    (Gncg.Equilibrium.unhappy_agents Gncg.Equilibrium.AE host (Gncg.Net_state.profile st))
    (Gncg.Equilibrium.Tracker.unhappy tr);
  Alcotest.(check bool) "now an AE" true (Gncg.Equilibrium.Tracker.is_equilibrium tr)

let test_dynamics_skips_clean_agents () =
  let host, s = star_instance () in
  let metrics = { Gncg.Dynamics.evaluations = 0; moves = 0; skips = 0 } in
  let outcome =
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~metrics Gncg.Dynamics.Add_only Gncg.Dynamics.Round_robin)
      host s
  in
  let reference =
    Helpers.stateless_dynamics ~max_steps:10_000 Gncg.Dynamics.Add_only Gncg.Dynamics.Round_robin host s
  in
  Alcotest.(check bool) "same trajectory as the stateless loop" true
    (Helpers.same_trajectory outcome reference);
  match outcome with
  | Gncg.Dynamics.Converged _ ->
    (* The center was idle before the accepted move and provably clean
       after it: preserved, not re-evaluated. *)
    Alcotest.(check int) "one agent skipped" 1 metrics.Gncg.Dynamics.skips;
    Alcotest.(check int) "one move" 1 metrics.Gncg.Dynamics.moves;
    (* n + 1 evaluations total (everyone once, the mover re-checked)
       despite the mid-pass move — a full-rescan engine would pay for
       the pre-move evaluations again. *)
    Alcotest.(check int) "n+1 evaluations" 7 metrics.Gncg.Dynamics.evaluations
  | _ -> Alcotest.fail "star dynamics did not converge"

(* --- tracker refresh = full rescan on random games --- *)

let random_game seed ~n =
  let r = Prng.create seed in
  let alpha = 0.5 +. Prng.float r 3.0 in
  let model = List.nth Gncg_workload.Instances.default_models (Prng.int r 4) in
  let host = Gncg_workload.Instances.random_host r model ~n ~alpha in
  let s = Gncg_workload.Instances.random_profile r host in
  (r, host, s)

let prop_tracker_refresh_byte_identical seed =
  let r, host, s = random_game (seed + 305) ~n:7 in
  let st = Gncg.Net_state.create host s in
  let kind = if Prng.int r 2 = 0 then Gncg.Equilibrium.GE else Gncg.Equilibrium.AE in
  let tr = Gncg.Equilibrium.Tracker.create kind st in
  let ok = ref true in
  for _ = 1 to 5 do
    let u = Prng.int r 7 in
    (match Gncg.Move.candidates host (Gncg.Net_state.profile st) ~agent:u with
    | [] -> ()
    | cands -> ignore (Gncg.Net_state.apply_move st ~agent:u (List.nth cands (Prng.int r (List.length cands)))));
    Gncg.Equilibrium.Tracker.refresh tr;
    let fresh = Gncg.Equilibrium.Tracker.create kind (Gncg.Net_state.copy st) in
    if Gncg.Equilibrium.Tracker.unhappy tr <> Gncg.Equilibrium.Tracker.unhappy fresh then
      ok := false
  done;
  !ok

(* Incremental Add_only dynamics with dirty-skipping still land on an
   add-stable profile (a wrongly preserved idle verdict would let the
   run converge to a non-AE). *)
let prop_incremental_add_only_reaches_ae seed =
  let _, host, s = random_game (seed + 306) ~n:8 in
  let metrics = { Gncg.Dynamics.evaluations = 0; moves = 0; skips = 0 } in
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:4000 ~metrics Gncg.Dynamics.Add_only Gncg.Dynamics.Round_robin)
      host s
  with
  | Gncg.Dynamics.Converged { profile; _ } ->
    metrics.Gncg.Dynamics.evaluations > 0 && Gncg.Equilibrium.is_ae host profile
  | _ -> false

let suites =
  [
    ( "flat-distance-engine",
      [
        qtest ~count:25 "flat insertions = reference" seed_gen
          prop_insertions_match_reference;
        qtest ~count:25 "change reports are exact" seed_gen prop_changed_rows_exact;
        qtest ~count:50 "sum_min_add = naive" seed_gen prop_sum_min_add_matches_naive;
        qtest ~count:25 "dist_sum_with_edge kernel" seed_gen prop_dist_sum_with_edge_matches;
        qtest ~count:40 "incr APSP = Float.min relax, bitwise" seed_gen
          prop_incr_apsp_matches_float_min;
        qtest ~count:40 "insertion kernels = Float.min, bitwise" seed_gen
          prop_insertion_kernels_match_float_min;
        qtest "batched insertion sums = single" seed_gen prop_batched_sums_match_single;
        Alcotest.test_case "fused total: infinity" `Quick test_total_with_edge_added_infinity;
        Alcotest.test_case "tracker: partial refresh" `Quick test_tracker_partial_refresh;
        Alcotest.test_case "dynamics: clean agents skipped" `Quick
          test_dynamics_skips_clean_agents;
        qtest ~count:20 "tracker refresh = rescan" seed_gen prop_tracker_refresh_byte_identical;
        qtest ~count:15 "add-only dynamics reach AE" seed_gen
          prop_incremental_add_only_reaches_ae;
      ] );
  ]
