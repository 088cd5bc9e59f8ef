module Wgraph = Gncg_graph.Wgraph
module Incr_apsp = Gncg_graph.Incr_apsp
module Metric = Gncg_metric.Metric
module Flt = Gncg_util.Flt

let finite_pairs host =
  let n = Host.n host in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Float.is_finite (Host.weight host u v) then acc := (u, v) :: !acc
    done
  done;
  List.rev !acc

let exact_small host =
  let max_edges = 16 in
  let pairs = Array.of_list (finite_pairs host) in
  let k = Array.length pairs in
  if k > max_edges then
    invalid_arg
      (Printf.sprintf "Social_optimum.exact_small: %d candidate edges exceed limit %d" k
         max_edges);
  let n = Host.n host in
  let best_cost = ref Float.infinity in
  let best_graph = ref (Wgraph.create n) in
  for mask = 0 to (1 lsl k) - 1 do
    let g = Wgraph.create n in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then begin
        let u, v = pairs.(i) in
        Wgraph.add_edge g u v (Host.weight host u v)
      end
    done;
    let c = Cost.network_social_cost host g in
    if Flt.lt c !best_cost then begin
      best_cost := c;
      best_graph := g
    end
  done;
  (!best_graph, !best_cost)

let algorithm_one host =
  let m = Host.metric host in
  if not (Gncg_metric.One_two.is_one_two m) then
    invalid_arg "Social_optimum.algorithm_one: host is not a 1-2 graph";
  let n = Host.n host in
  (* The fixed point of Algorithm 1 keeps every 1-edge and exactly the
     2-edges that close no 1-1-2 triangle (removals cannot create new
     triangles, so the static condition is equivalent to the loop). *)
  let g = Wgraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Host.weight host u v = 1.0 then Wgraph.add_edge g u v 1.0
      else begin
        let dominated = ref false in
        for x = 0 to n - 1 do
          if x <> u && x <> v && Host.weight host u x = 1.0 && Host.weight host x v = 1.0
          then dominated := true
        done;
        if not !dominated then Wgraph.add_edge g u v 2.0
      end
    done
  done;
  (g, Cost.network_social_cost host g)

let tree_optimum tree host =
  let expected = Gncg_metric.Tree_metric.metric tree in
  if not (Metric.equal expected (Host.metric host)) then
    invalid_arg "Social_optimum.tree_optimum: host is not the metric of this tree";
  let g = Gncg_metric.Tree_metric.graph tree in
  (g, Cost.network_social_cost host g)

let greedy_heuristic host =
  let n = Host.n host in
  let alpha = Host.alpha host in
  let g =
    Wgraph.of_edges n (Gncg_graph.Mst.prim_complete n (fun u v -> Host.weight host u v))
  in
  (* Best improving addition w.r.t. the given distance matrix (steepest),
     with its cost change.  A cost change clears the game tolerance at
     the current cost. *)
  let best_addition dm current edge_weight_total =
    let tol = Flt.tol current current in
    let best_delta = ref 0.0 and best = ref None in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let w = Host.weight host u v in
        if Float.is_finite w && not (Wgraph.has_edge g u v) then begin
          let c =
            (alpha *. (edge_weight_total +. w))
            +. Incr_apsp.total_with_edge_added dm u v w
          in
          let delta = c -. current in
          if Flt.lt ~tol delta !best_delta then begin
            best_delta := delta;
            best := Some (delta, (u, v, w))
          end
        end
      done
    done;
    !best
  in
  let best_removal current =
    let tol = Flt.tol current current in
    let best_delta = ref 0.0 and best = ref None in
    List.iter
      (fun (u, v, w) ->
        Wgraph.remove_edge g u v;
        let c = Cost.network_social_cost host g in
        Wgraph.add_edge g u v w;
        let delta = c -. current in
        if Flt.lt ~tol delta !best_delta then begin
          best_delta := delta;
          best := Some (delta, (u, v))
        end)
      (Wgraph.edges g);
    !best
  in
  (* Phase 1 — additions only, the bulk of the walk from the MST: the
     distance matrix is maintained incrementally (one exact O(n^2) update
     per applied edge), so no shortest-path recomputation is needed. *)
  let dm = Incr_apsp.of_graph g in
  let weight_total = ref (Wgraph.total_weight g) in
  let current = ref ((alpha *. !weight_total) +. Incr_apsp.total dm) in
  let adding = ref true in
  while !adding do
    match best_addition dm !current !weight_total with
    | Some (_, (u, v, w)) ->
      Wgraph.add_edge g u v w;
      ignore (Incr_apsp.add_edge dm u v w);
      weight_total := !weight_total +. w;
      current := (alpha *. !weight_total) +. Incr_apsp.total dm
    | None -> adding := false
  done;
  (* Phase 2 — full steepest descent over additions and removals; usually
     only a handful of iterations remain.  The final state is a local
     optimum of the complete single-edge neighbourhood. *)
  let improved = ref true in
  while !improved do
    improved := false;
    let dm = Incr_apsp.of_graph g in
    let current = Cost.network_social_cost host g in
    (* Additions are priced first: the removal scan edits [g] in place,
       which reorders its hashtables and so [total_weight]'s sum.  Either
       pick has a negative delta; a missing removal counts as 0. *)
    let add = best_addition dm current (Wgraph.total_weight g) in
    let remove = best_removal current in
    match (add, remove) with
    | Some (da, (u, v, w)), _ when da <= Option.fold ~none:0.0 ~some:fst remove ->
      Wgraph.add_edge g u v w;
      improved := true
    | _, Some (_, (u, v)) ->
      Wgraph.remove_edge g u v;
      improved := true
    | _ -> ()
  done;
  (g, Cost.network_social_cost host g)

let exact_bnb host =
  let max_edges = 28 in
  let pairs = Array.of_list (finite_pairs host) in
  let k = Array.length pairs in
  if k > max_edges then
    invalid_arg
      (Printf.sprintf "Social_optimum.exact_bnb: %d candidate edges exceed limit %d" k
         max_edges);
  let n = Host.n host in
  let alpha = Host.alpha host in
  (* Heaviest-first decision order: excluding heavy edges early tightens
     the building-cost part of the bound fastest. *)
  Array.sort (fun (a, b) (c, d) -> Float.compare (Host.weight host c d) (Host.weight host a b)) pairs;
  let weight_of i =
    let u, v = pairs.(i) in
    Host.weight host u v
  in
  let suffix_weight = Array.make (k + 1) 0.0 in
  for i = k - 1 downto 0 do
    suffix_weight.(i) <- suffix_weight.(i + 1) +. weight_of i
  done;
  (* Working graph holds decided-in edges plus all undecided edges; the
     DFS removes an edge when excluding it and restores on backtrack. *)
  let g = Wgraph.create n in
  Array.iteri (fun i (u, v) -> Wgraph.add_edge g u v (weight_of i)) pairs;
  let best_graph, warm = greedy_heuristic host in
  let best_graph = ref best_graph in
  let best_cost = ref warm in
  let rec go idx in_weight =
    (* Candidate: take every undecided edge. *)
    let dist = Cost.network_dist g in
    let take_all = (alpha *. (in_weight +. suffix_weight.(idx))) +. dist in
    if Flt.lt take_all !best_cost then begin
      best_cost := take_all;
      best_graph := Wgraph.copy g
    end;
    (* Bound: building cost of decided edges + relaxed distance cost. *)
    let bound = (alpha *. in_weight) +. dist in
    if Flt.lt bound !best_cost && idx < k then begin
      let u, v = pairs.(idx) in
      let w = weight_of idx in
      (* Branch 1: exclude the edge. *)
      Wgraph.remove_edge g u v;
      go (idx + 1) in_weight;
      Wgraph.add_edge g u v w;
      (* Branch 2: include it. *)
      go (idx + 1) (in_weight +. w)
    end
  in
  go 0 0.0;
  (!best_graph, !best_cost)

let best_known host =
  let pairs = List.length (finite_pairs host) in
  (* Branch-and-bound handles n = 7 in well under a second; beyond that
     the steepest-descent heuristic takes over. *)
  if pairs <= 21 then exact_bnb host else greedy_heuristic host

let complete_host_cost host =
  Cost.network_social_cost host (Metric.complete_graph (Host.metric host))
