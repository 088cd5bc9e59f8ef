(* The insertion support test of [Incr_apsp.add_edge] against the
   kernel it had before that test.  [spec_add_edge] below is that
   kernel's body verbatim, run on a flat copy of the store's matrix: it
   relaxes every row.  After every insertion of a random sequence of
   insertions and deletions, the store's matrix must equal the spec's
   bit for bit, and its change report must list exactly the spec's
   changed rows.  The hosts are [Helpers.adversarial_hosts]: all 7 CLI
   model families, the tie-heavy all-ones and 1-2 hosts, a line host
   with coincident points (so that zero-weight pairs exist), weights
   spread over four decades, a host with a part that no finite weight
   reaches, and weights scaled by 2²⁰ up to 10¹⁰.  Each sequence starts
   from a sparse random network, often disconnected, so insertions also
   join components (rows reaching exactly one endpoint) and leave rows
   reaching neither.  The walks relax rows along one route through the
   new edge and along both, so the bits comparison covers a single
   route pass and the two passes in a row against the spec's three-way
   compare-select. *)

open Helpers
module Prng = Gncg_util.Prng
module Host = Gncg.Host
module Wgraph = Gncg_graph.Wgraph
module Incr_apsp = Gncg_graph.Incr_apsp
module Changed_rows = Gncg_graph.Changed_rows

(* --- the insertion kernel before the support test ------------------------ *)

let[@inline] fmin (a : float) b = if b < a then b else a

(* Relaxes the flat row-major matrix [d] of [n] vertices for a new edge
   (u, v, w) and returns the rows in which some entry strictly
   decreased. *)
let spec_add_edge d n u v w =
  let changed = Array.make n false in
  if w < Float.Array.get d ((u * n) + v) then begin
    let du = Float.Array.sub d (u * n) n and dv = Float.Array.sub d (v * n) n in
    for x = 0 to n - 1 do
      let base = x * n in
      let dxu = Float.Array.unsafe_get du x and dxv = Float.Array.unsafe_get dv x in
      let touched = ref false in
      for y = 0 to n - 1 do
        let via_uv = dxu +. w +. Float.Array.unsafe_get dv y in
        let via_vu = dxv +. w +. Float.Array.unsafe_get du y in
        let cur = Float.Array.unsafe_get d (base + y) in
        let best = fmin cur (fmin via_uv via_vu) in
        if best < cur then begin
          Float.Array.unsafe_set d (base + y) best;
          touched := true
        end
      done;
      if !touched then changed.(x) <- true
    done
  end;
  changed

let flat store =
  let n = Incr_apsp.n store in
  let m = Incr_apsp.matrix store in
  Float.Array.init (n * n) (fun i -> m.(i / n).(i mod n))

(* --- hosts and sequences -------------------------------------------------- *)

(* A store on a sparse random network of the host's finite pairs. *)
let random_store r host =
  let n = Host.n host in
  let g = Wgraph.create n in
  let p = Prng.float_in r 0.05 0.4 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let w = Host.weight host u v in
      if Float.is_finite w && Prng.coin r p then Wgraph.add_edge g u v w
    done
  done;
  Incr_apsp.of_graph g

(* Runs [steps] random toggles of finite host pairs on a fresh store:
   a present edge is removed, an absent one inserted at its host
   weight.  [on_insert store u v w] runs before each insertion,
   [after_insert] after it with the store's report. *)
let walk r host ~steps ~on_insert ~after_insert =
  let n = Host.n host in
  let store = random_store r host in
  for _ = 1 to steps do
    let u = Prng.int r n and v = Prng.int r n in
    let w = Host.weight host u v in
    if u <> v && Float.is_finite w then
      if Wgraph.has_edge (Incr_apsp.graph store) u v then
        ignore (Incr_apsp.remove_edge store u v)
      else begin
        on_insert store u v w;
        after_insert store (Incr_apsp.add_edge store u v w)
      end
  done

let bits_equal a b =
  let len = Float.Array.length a in
  len = Float.Array.length b
  &&
  let ok = ref true in
  for i = 0 to len - 1 do
    if
      not
        (Int64.equal
           (Int64.bits_of_float (Float.Array.get a i))
           (Int64.bits_of_float (Float.Array.get b i)))
    then ok := false
  done;
  !ok

(* How many rows of the store pass exactly one of the two route tests of
   [Incr_apsp.add_edge] for the edge (u, v, w), and how many pass both:
   the rows relaxed along one route and along both. *)
let route_counts store u v w =
  let n = Incr_apsp.n store in
  let d = Incr_apsp.matrix store in
  let m = ref 0.0 in
  for x = 0 to n - 1 do
    List.iter (fun z -> if d.(z).(x) > !m && d.(z).(x) < Float.infinity then m := d.(z).(x)) [ u; v ]
  done;
  let delta = Gncg_util.Flt.stored_margin n ((2.0 *. !m) +. w) in
  let one = ref 0 and two = ref 0 in
  for x = 0 to n - 1 do
    let uv = d.(u).(x) +. w < d.(v).(x) +. delta and vu = d.(v).(x) +. w < d.(u).(x) +. delta in
    if uv && vu then incr two else if uv || vu then incr one
  done;
  (!one, !two)

let test_matches_spec () =
  let r = rng 2700 in
  Test_tight.with_profiling (fun () ->
      let relaxed0 = Test_tight.counter "incr_apsp.rows_relaxed" in
      let rows = ref 0 and one_route = ref 0 and two_routes = ref 0 in
      List.iter
        (fun (name, make) ->
          for trial = 1 to 6 do
            let n = 2 + Prng.int r 29 in
            let host = make n in
            let spec = ref (Float.Array.create 0) and want = ref [||] in
            let step = ref 0 in
            walk r host ~steps:80
              ~on_insert:(fun store u v w ->
                spec := flat store;
                want := spec_add_edge !spec n u v w;
                if w < Incr_apsp.distance store u v then begin
                  rows := !rows + n;
                  let one, two = route_counts store u v w in
                  one_route := !one_route + one;
                  two_routes := !two_routes + two
                end)
              ~after_insert:(fun store changed ->
                incr step;
                let label = Printf.sprintf "%s n=%d trial %d insertion %d" name n trial !step in
                if not (bits_equal (flat store) !spec) then
                  Alcotest.failf "%s: matrix differs from the spec" label;
                for x = 0 to n - 1 do
                  if Changed_rows.mem changed x <> !want.(x) then
                    Alcotest.failf "%s: row %d reported %b, spec %b" label x
                      (Changed_rows.mem changed x) !want.(x)
                done)
          done)
        (adversarial_hosts r ~alpha:2.0);
      (* Every branch of the test ran: some rows were skipped, and of the
         relaxed ones some along one route and some along both. *)
      let relaxed = Test_tight.counter "incr_apsp.rows_relaxed" - relaxed0 in
      check_true "some rows relaxed" (relaxed > 0);
      check_true "some rows skipped" (relaxed < !rows);
      check_true "relaxed rows = one-route + two-route rows" (relaxed = !one_route + !two_routes);
      check_true "some rows relaxed along one route" (!one_route > 0);
      check_true "some rows relaxed along both routes" (!two_routes > 0))

(* The margin, with the factor of two that ALGORITHMS.md claims as
   headroom: before every insertion of sequences drawn as above, for
   each endpoint z of the new edge, every entry falls short of its route
   through z, fl(d(z,x) + d(z,y)), by at most half of
   δ = [Flt.stored_margin] at 2M + w. *)
let test_margin_has_headroom () =
  let r = rng 2710 in
  let worst = ref 0.0 in
  List.iter
    (fun (_, make) ->
      for _ = 1 to 6 do
        let n = 2 + Prng.int r 29 in
        walk r (make n) ~steps:80
          ~on_insert:(fun store u v w ->
            let d = Incr_apsp.matrix store in
            let m = ref 0.0 in
            for x = 0 to n - 1 do
              List.iter
                (fun z -> if Float.is_finite d.(z).(x) then m := Float.max !m d.(z).(x))
                [ u; v ]
            done;
            let delta = Gncg_util.Flt.stored_margin n ((2.0 *. !m) +. w) in
            List.iter
              (fun z ->
                for x = 0 to n - 1 do
                  for y = 0 to n - 1 do
                    let route = d.(z).(x) +. d.(z).(y) in
                    let shortfall = d.(x).(y) -. route in
                    if Float.is_finite route && shortfall > 0.0 then
                      worst := Float.max !worst (shortfall /. delta)
                  done
                done)
              [ u; v ])
          ~after_insert:(fun _ _ -> ())
      done)
    (adversarial_hosts r ~alpha:2.0);
  if !worst > 0.5 then Alcotest.failf "shortfall reached %.3g of the margin" !worst

let suites =
  [
    ( "insertion-support",
      [
        case "add_edge = relax-every-row spec (bits)" test_matches_spec;
        case "shortfall within half the margin" test_margin_has_headroom;
      ] );
  ]
