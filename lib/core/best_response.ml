module ISet = Strategy.ISet
module Flat_adj = Gncg_graph.Flat_adj

(* Facility index -> vertex: facilities are all vertices except [u], in
   increasing order. *)
let vertex_of_index u k = if k < u then k else k + 1

let umfl_instance host s u =
  let n = Strategy.n s in
  let alpha = Host.alpha host in
  (* G' = G(s) without the edges owned by u, as one flat adjacency whose
     rows are bitwise [Dijkstra.sssp]'s. *)
  let g' = Flat_adj.of_wgraph (Network.graph host (Strategy.with_strategy s u ISet.empty)) in
  let d = Array.make n 0.0 in
  let nf = n - 1 in
  let open_cost = Array.make nf Float.infinity in
  let forced = Array.make nf false in
  let service = Array.make_matrix nf nf Float.infinity in
  for k = 0 to nf - 1 do
    let f = vertex_of_index u k in
    let w_uf = Host.weight host u f in
    if Strategy.owns s f u && Float.is_finite w_uf then begin
      open_cost.(k) <- 0.0;
      forced.(k) <- true
    end
    else open_cost.(k) <- alpha *. w_uf;
    if Float.is_finite w_uf then begin
      Flat_adj.sssp_into g' f d;
      for c = 0 to nf - 1 do
        service.(k).(c) <- w_uf +. d.(vertex_of_index u c)
      done
    end
  done;
  let inst = Facility_location.make ~forced_open:forced ~open_cost ~service () in
  let decode open_set =
    let acc = ref ISet.empty in
    Array.iteri
      (fun k is_open ->
        (* Forced facilities are the other side's purchases, not u's. *)
        if is_open && not forced.(k) then acc := ISet.add (vertex_of_index u k) !acc)
      open_set;
    !acc
  in
  (inst, decode)

let exact host s u =
  let inst, decode = umfl_instance host s u in
  let open_set, cost = Facility_location.solve_exact inst in
  (decode open_set, cost)

let exact_and_local host s u =
  let inst, decode = umfl_instance host s u in
  let ((local_set, local_cost) as local) = Facility_location.local_search inst in
  let exact_set, exact_cost = Facility_location.solve_exact ~start:local inst in
  ((decode exact_set, exact_cost), (decode local_set, local_cost))

let exact_enum host s u =
  let n = Strategy.n s in
  let candidates =
    List.filter
      (fun v -> v <> u && Float.is_finite (Host.weight host u v))
      (List.init n (fun v -> v))
  in
  let k = List.length candidates in
  if k > 25 then invalid_arg "Best_response.exact_enum: too many candidates";
  let cand = Array.of_list candidates in
  let best_cost = ref Float.infinity in
  let best_set = ref ISet.empty in
  for mask = 0 to (1 lsl k) - 1 do
    let set = ref ISet.empty in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then set := ISet.add cand.(i) !set
    done;
    let s' = Strategy.with_strategy s u !set in
    let c = Cost.agent_cost host s' u in
    if c < !best_cost -. Gncg_util.Flt.eps then begin
      best_cost := c;
      best_set := !set
    end
  done;
  (!best_set, !best_cost)

