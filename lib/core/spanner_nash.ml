module Wgraph = Gncg_graph.Wgraph
module One_two = Gncg_metric.One_two

let require_one_two host =
  if not (One_two.is_one_two (Host.metric host)) then
    invalid_arg "Spanner_nash: host is not a 1-2 graph"

let is_three_half_spanner host g =
  require_one_two host;
  let n = Host.n host in
  let ok = ref true in
  for u = 0 to n - 1 do
    let d = Gncg_graph.Dijkstra.sssp g u in
    for v = u + 1 to n - 1 do
      (* 3/2 * 1 = 1.5 forces 1-edges to be present (integer distances);
         3/2 * 2 = 3 bounds the detour of absent 2-edges. *)
      let limit = if Host.weight host u v = 1.0 then 1.0 else 3.0 in
      if d.(v) > limit +. Gncg_util.Flt.eps then ok := false
    done
  done;
  !ok

let two_pairs host =
  let n = Host.n host in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Host.weight host u v = 2.0 then acc := (u, v) :: !acc
    done
  done;
  List.rev !acc

let base_one_graph host =
  One_two.one_subgraph (Host.metric host)

let min_weight_spanner_exact ?(max_two_edges = 16) host =
  require_one_two host;
  let candidates = Array.of_list (two_pairs host) in
  let k = Array.length candidates in
  if k > max_two_edges then
    invalid_arg
      (Printf.sprintf "Spanner_nash.min_weight_spanner_exact: %d 2-edges exceed limit %d" k
         max_two_edges);
  let best = ref None in
  for mask = 0 to (1 lsl k) - 1 do
    let cardinality =
      let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1) in
      popcount mask
    in
    let better = match !best with None -> true | Some (c, _) -> cardinality < c in
    if better then begin
      let g = base_one_graph host in
      for i = 0 to k - 1 do
        if mask land (1 lsl i) <> 0 then begin
          let u, v = candidates.(i) in
          Wgraph.add_edge g u v 2.0
        end
      done;
      if is_three_half_spanner host g then best := Some (cardinality, g)
    end
  done;
  match !best with
  | Some (_, g) -> g
  | None ->
    (* The full 2-edge set is always a spanner, so the search space is
       never empty. *)
    Gncg_util.Gncg_error.unreachable ~context:"Spanner_nash.min_weight_spanner"
      "no spanner found although the full 2-edge set qualifies"

let nash_ownership host g =
  require_one_two host;
  Ownership.find_ne host g
