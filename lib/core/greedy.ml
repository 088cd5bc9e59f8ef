module Flt = Gncg_util.Flt
module ISet = Strategy.ISet
module Flat_adj = Gncg_graph.Flat_adj
module Metric = Gncg_obs.Metric

let c_whatifs = Metric.Counter.make "greedy.whatif_sssp"
let c_swaps_composed = Metric.Counter.make "greedy.swaps_composed"
let c_settled = Metric.Counter.make "greedy.settled"
let c_sums_reused = Metric.Counter.make "greedy.sums_reused"
let c_prefix_skipped = Metric.Counter.make "greedy.prefix_skipped"
let c_agents_cleared = Metric.Counter.make "greedy.agents_cleared"
let c_agents_scanned = Metric.Counter.make "greedy.agents_scanned"

(* Both costs can be infinite (disconnected before and after) and near-ties
   are floating-point noise: the tolerant comparison classifies both as
   "no gain", consistently with the rest of the engine. *)
let gain_between before after = if Flt.approx_eq before after then 0.0 else before -. after

let move_gain ?graph host s ~agent mv =
  gain_between
    (Cost.agent_cost ?graph host s agent)
    (Cost.agent_cost host (Move.apply s ~agent mv) agent)

(* Distances are never NaN and never -0, so these compare-selects return
   the bits [Float.min] and [Float.max] would. *)
let[@inline] fmin (a : float) b = if b < a then b else a
let[@inline] fmax (a : float) b = if b > a then b else a

(* A base row with the state of [Flt.sum]'s Kahan loop before every
   index: [ps.(i)] and [pc.(i)] are the running sum and compensation
   after the entries [0 .. i-1], kept up to [fin], the row's first +inf
   ([n] when there is none).  [sum] is the row's [Flt.sum]: the last
   state, or +inf. *)
type prefix = { row : float array; ps : float array; pc : float array; fin : int; sum : float }

let prefix row =
  let n = Array.length row in
  let ps = Array.make (n + 1) 0.0 and pc = Array.make (n + 1) 0.0 in
  let s = ref 0.0 and c = ref 0.0 and i = ref 0 in
  while !i < n && Array.unsafe_get row !i <> Float.infinity do
    let y = Array.unsafe_get row !i -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t;
    incr i;
    Array.unsafe_set ps !i !s;
    Array.unsafe_set pc !i !c
  done;
  { row; ps; pc; fin = !i; sum = (if !i < n then Float.infinity else !s) }

(* [Flt.sum] of the entrywise minimum of [p.row] and [h], where [h] is
   +inf off [reached.(0 .. k-1)].  Before the least reached [x] with
   [h(x) < row(x)] the minimum is the row itself, so its sum is the row's
   when there is no such [x], +inf when the row has a +inf before [x]
   ([Flt.sum]'s rule), and otherwise resumes from the row's state at [x]:
   the same additions, in the same order, as [Flt.sum] of the minimum. *)
let min_sum_reached p h reached k =
  let row = p.row in
  let x = ref max_int in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get reached i in
    if v < !x && Array.unsafe_get h v < Array.unsafe_get row v then x := v
  done;
  let x = !x in
  if x = max_int then begin
    Metric.Counter.incr c_sums_reused;
    p.sum
  end
  else if x > p.fin then Float.infinity
  else begin
    Metric.Counter.add c_prefix_skipped x;
    let n = Array.length row in
    let s = ref (Array.unsafe_get p.ps x) and c = ref (Array.unsafe_get p.pc x) and i = ref x in
    while !i < n do
      let m = fmin (Array.unsafe_get row !i) (Array.unsafe_get h !i) in
      if m = Float.infinity then begin
        s := Float.infinity;
        i := n
      end
      else begin
        let y = m -. !c in
        let t = !s +. y in
        c := t -. !s -. y;
        s := t;
        incr i
      end
    done;
    !s
  end

(* [Cost.edge_cost_of] of the agent's [owned] set (ascending, priced
   [ow]) without [skip] and with [t] priced [wt]; -1 names no vertex.
   The prices are added to 0.0 in ascending vertex order, as the set's
   fold adds them, so the bits are the same. *)
let[@inline] edited_edge_cost alpha owned ow ~skip ~t (wt : float) =
  let acc = ref 0.0 and pending = ref (t >= 0) in
  for i = 0 to Array.length owned - 1 do
    let v = Array.unsafe_get owned i in
    if !pending && t < v then begin
      acc := !acc +. wt;
      pending := false
    end;
    if v <> skip then acc := !acc +. Array.unsafe_get ow i
  done;
  if !pending then acc := !acc +. wt;
  alpha *. !acc

(* The agent's addable targets, ascending. *)
let addable_targets host s ~agent =
  let n = Strategy.n s in
  let targets = Array.make n 0 and k = ref 0 in
  for v = 0 to n - 1 do
    if Move.addable host s ~agent v then begin
      targets.(!k) <- v;
      incr k
    end
  done;
  Array.sub targets 0 !k

(* Whether the owned edge (agent, o) stays built when the agent sells it:
   the other side buys it too, or it was never built. *)
let stays_built adj s ~agent o = Strategy.owns s o agent || not (Flat_adj.has_edge adj agent o)

(* One fold over the agent's candidates, in [Move.candidates] order.
   Every moved row is the entrywise minimum of two rows, bit for bit.  A
   simple path from the agent u leaves u once and never returns, so its
   first edge decides where it lies: the paths of G + (u,t) are those of
   G plus those of H_t, the network with every edge at u removed and
   (u,t) put in, and likewise for G - (u,o) + (u,t).  The kernel's row is
   the minimum, over paths, of the path's float length, so
     row(G + ut) = min(row(G), row(H_t))
     row(G - uo + ut) = min(row(G - uo), row(H_t)).
   Per agent: one pass on G, one what-if per sold owned edge and one
   bounded pass per H_t; a swap is one minimum and sum.  Each what-if
   starts from a copy of row(G), which [Flat_adj.sssp_edited_into]
   settles into the fresh pass's row bit for bit.

   The H_t passes settle only values below the envelope R, the entrywise
   maximum of row(G) and every row they are min'ed with.  Past its first
   edge an H_t path lies in G without u's edges, which every such row's
   network contains.  If the path reaches z at a value >= R(z), each
   row's own path to z, extended by the same edges, stays at or below it
   from there on (a float sum is monotone in its running value); so a
   vertex whose H_t value is below R is reached through vertices below R
   only, and gets its exact value, while every vertex the bounded pass
   leaves at +inf has row(H_t)(x) >= R(x), where the minimum is the row
   either way.  A candidate's sum is the row's own when no reached vertex
   improves it, and otherwise resumes the row's Kahan sum at the first
   improved vertex ([min_sum_reached]).

   [adj], the flat form of G(s), belongs to the call, which edits it.
   Each candidate's cost is [Cost.agent_cost] of the moved profile to
   the bit: the rows are [Dijkstra.sssp]'s, and the edited set is priced
   as [Cost.edge_cost_of] prices it ([edited_edge_cost]).  [row], when
   given, is that pass's row, read and never written.  Returns the
   current cost and the folded result. *)
let fold_gains ?(kinds = [ `Add; `Delete; `Swap ]) ?row adj host s ~agent f init =
  let n = Strategy.n s in
  let owned_set = Strategy.strategy s agent in
  let owned = Array.of_list (ISet.elements owned_set) in
  let targets = addable_targets host s ~agent in
  let deg = Array.length owned and k = Array.length targets in
  let want_add = List.mem `Add kinds
  and want_del = List.mem `Delete kinds
  and want_swap = List.mem `Swap kinds in
  let cur =
    match row with
    | Some row -> row
    | None ->
      let cur = Array.make n 0.0 in
      Flat_adj.sssp_into adj agent cur;
      cur
  in
  let cur_p = prefix cur in
  let before = Cost.edge_cost_of host agent owned_set +. cur_p.sum in
  (* Row of G(s) - (u,o) for each owned o; G(s)'s own row when the edge
     stays built (the other side buys it too, or it was never built). *)
  let del_ps =
    if not (want_del || (want_swap && k > 0)) then [||]
    else
      Array.map
        (fun o ->
          if stays_built adj s ~agent o then cur_p
          else begin
            Metric.Counter.incr c_whatifs;
            let row = Array.copy cur in
            ignore (Flat_adj.sssp_edited_into adj ~remove:(agent, o) agent row);
            prefix row
          end)
        owned
  in
  (* One pass on each H_t fills the addition sums and, for each owned o,
     the swap sums, so no H_t row outlives its target. *)
  let add_sums = Array.make k 0.0 in
  let swap_sums = Array.make (if want_swap then deg * k else 0) 0.0 in
  if (want_add || (want_swap && deg > 0)) && k > 0 then begin
    Flat_adj.isolate adj agent;
    let envelope = Array.copy cur in
    if want_swap then
      Array.iter
        (fun p ->
          for x = 0 to n - 1 do
            envelope.(x) <- fmax envelope.(x) p.row.(x)
          done)
        del_ps;
    let h = Array.make n Float.infinity and reached = Array.make n 0 in
    Array.iteri
      (fun j t ->
        Metric.Counter.incr c_whatifs;
        (* A pass on H_t from u reaches t at 0 + w(u,t) and continues on
           G without u's edges. *)
        let start = 0.0 +. Host.weight host agent t in
        let r = Flat_adj.sssp_bounded_into adj ~src:t ~start ~bound:envelope h reached in
        Metric.Counter.add c_settled r;
        if want_add then add_sums.(j) <- min_sum_reached cur_p h reached r;
        if want_swap then
          Array.iteri
            (fun i p -> swap_sums.((i * k) + j) <- min_sum_reached p h reached r)
            del_ps;
        for i = 0 to r - 1 do
          h.(reached.(i)) <- Float.infinity
        done)
      targets
  end;
  let alpha = Host.alpha host in
  let ow = Array.map (Host.weight host agent) owned
  and tw = Array.map (Host.weight host agent) targets in
  let acc = ref init in
  if want_add then
    for j = 0 to k - 1 do
      let edge = edited_edge_cost alpha owned ow ~skip:(-1) ~t:targets.(j) tw.(j) in
      acc := f !acc (Move.Add targets.(j)) (gain_between before (edge +. add_sums.(j)))
    done;
  if want_del then
    for i = 0 to deg - 1 do
      let edge = edited_edge_cost alpha owned ow ~skip:owned.(i) ~t:(-1) 0.0 in
      acc := f !acc (Move.Delete owned.(i)) (gain_between before (edge +. del_ps.(i).sum))
    done;
  if want_swap then begin
    Metric.Counter.add c_swaps_composed (deg * k);
    for i = 0 to deg - 1 do
      for j = 0 to k - 1 do
        let edge = edited_edge_cost alpha owned ow ~skip:owned.(i) ~t:targets.(j) tw.(j) in
        acc :=
          f !acc (Move.Swap (owned.(i), targets.(j)))
            (gain_between before (edge +. swap_sums.((i * k) + j)))
      done
    done
  end;
  (before, !acc)

(* The largest strict improvement; ties keep the earlier candidate. *)
let pick acc mv gain =
  match acc with
  | Some (_, g) when g >= gain -> acc
  | _ when gain > Flt.eps -> Some (mv, gain)
  | _ -> acc

let build_adj ?graph host s =
  Flat_adj.of_wgraph (match graph with Some g -> g | None -> Network.graph host s)

(* G(s) in flat form and its row from every vertex, each one
   [Flat_adj.sssp_into] on it: the pass [fold_gains] would run first for
   that agent, bit for bit. *)
type profile = { adj : Flat_adj.t; rows : float array array }

let prepare host s =
  let adj = build_adj host s in
  let n = Strategy.n s in
  let rows =
    Array.init n (fun x ->
        let row = Array.make n 0.0 in
        Flat_adj.sssp_into adj x row;
        row)
  in
  { adj; rows }

(* Plain sums for the bounds below, which carry the rounding margin.
   Σ_x min(a(x), fl(w + b(x))): *)
let[@inline] plain_min_sum (a : float array) (w : float) (b : float array) =
  let acc = ref 0.0 in
  for x = 0 to Array.length a - 1 do
    acc := !acc +. fmin (Array.unsafe_get a x) (w +. Array.unsafe_get b x)
  done;
  !acc

(* L_o(x), the least offer at x of the agent's neighbours other than o,
   read from [Flat_adj.nearest_two_into]'s [best], [arg] and [second]. *)
let[@inline] floor_at (best : float array) (arg : int array) (second : float array) o x =
  if Array.unsafe_get arg x = o then Array.unsafe_get second x else Array.unsafe_get best x

(* Σ_x L_o(x), summed plainly. *)
let[@inline] floor_sum (best : float array) arg second o =
  let acc = ref 0.0 in
  for x = 0 to Array.length best - 1 do
    acc := !acc +. floor_at best arg second o x
  done;
  !acc

(* Σ_x min(L_o(x), fl(w + b(x))), summed plainly. *)
let[@inline] floor_min_sum (best : float array) arg second o (w : float) (b : float array) =
  let acc = ref 0.0 in
  for x = 0 to Array.length best - 1 do
    acc := !acc +. fmin (floor_at best arg second o x) (w +. Array.unsafe_get b x)
  done;
  !acc

(* A candidate whose edge cost and distance sum are bounded below by
   [edge] and [p], less [tol] of their sum, gains at most [Flt.eps] over
   [before].  A NaN, which only an infinite bound could make, clears
   nothing. *)
let[@inline] cleared (before : float) (edge : float) (p : float) (tol : float) =
  let c = edge +. p in
  before -. (c -. (tol *. c)) <= Flt.eps

(* Whether bounds from the profile's rows prove that no candidate of the
   agent gains more than [Flt.eps], so that [fold_gains] would return no
   move (docs/ALGORITHMS.md, "Bound-first certification").  [before] is
   the agent's finite current cost and [cur_sum] its distance part.
   Each candidate's moved row is bounded entry by entry:
   - addition (u,t): min(d_u, w + d_t), since row(H_t) >= w + d_t;
   - deletion of o: the neighbour floor L_o, the best offer
     w(u,z) + d_z of u's other neighbours z ([Flat_adj.nearest_two_into]);
     an infinite entry means the deletion disconnects and cannot gain;
   - swap (o,t): first the addition's bound (the removal only lengthens
     distances), then min(L_o, w + d_t); when the sold edge survives the
     sale the swap is the addition and has no other bound.
   A bound is summed plainly, its edge cost is α times the owned prices
   kept, plus w, summed in any order, and the pair stands for the exact
   cost less [tol] of it: [Flt.stored_margin] plus [Flt.sum_margin].
   The first candidate no bound clears ends the test. *)
let bounds_clear ~want_add ~want_del ~want_swap { adj; rows } host s ~agent ~before ~cur_sum =
  let n = Array.length rows in
  let d = rows.(agent) in
  let alpha = Host.alpha host and wrow = Host.weight_row host agent in
  let tol = Flt.stored_margin n 1.0 +. Flt.sum_margin n 1.0 in
  let owned = Array.of_list (ISet.elements (Strategy.strategy s agent)) in
  let deg = Array.length owned in
  let survives = Array.map (stays_built adj s ~agent) owned in
  (* The owned prices summed, and summed with each one left out. *)
  let kept = Array.make deg 0.0 and total = ref 0.0 in
  Array.iteri
    (fun i o ->
      total := !total +. wrow.(o);
      for i' = 0 to deg - 1 do
        if i' <> i then kept.(i') <- kept.(i') +. wrow.(o)
      done)
    owned;
  let total = !total in
  let targets = if want_add || want_swap then addable_targets host s ~agent else [||] in
  let k = Array.length targets in
  let for_all m f =
    let rec go i = i >= m || (f i && go (i + 1)) in
    go 0
  in
  (* The additions' plain sums, which the swaps' pre-filter reuses. *)
  let add_p = Array.make k 0.0 in
  (* The deletions and swaps, once the additions are cleared: the floors
     L_o of the sold edges come from one pass over the neighbours'
     rows. *)
  let sales_clear () =
    let best = Array.make n 0.0 and arg = Array.make n 0 and second = Array.make n 0.0 in
    if not (Array.for_all Fun.id survives) then
      Flat_adj.nearest_two_into adj rows agent best arg second;
    ((not want_del)
    || for_all deg (fun i ->
           let edge = alpha *. kept.(i) in
           if survives.(i) then cleared before edge cur_sum tol
           else
             let p = floor_sum best arg second owned.(i) in
             p = Float.infinity || cleared before edge p tol))
    && ((not want_swap)
       || for_all deg (fun i ->
              for_all k (fun j ->
                  let t = targets.(j) in
                  let w = wrow.(t) in
                  let edge = alpha *. (kept.(i) +. w) in
                  cleared before edge add_p.(j) tol
                  || (not survives.(i))
                     && cleared before edge
                          (floor_min_sum best arg second owned.(i) w rows.(t))
                          tol)))
  in
  for_all k (fun j ->
      let t = targets.(j) in
      let w = wrow.(t) in
      add_p.(j) <- plain_min_sum d w rows.(t);
      (not want_add) || cleared before (alpha *. (total +. w)) add_p.(j) tol)
  && (deg = 0 || not (want_del || want_swap) || sales_clear ())

(* With the profile, an agent the bounds clear is answered from its row
   alone; any other is scanned exactly, on a copy of the profile's
   adjacency that starts from the same row, so parallel scans share the
   profile read-only. *)
let scan ?(kinds = [ `Add; `Delete; `Swap ]) ?profile host s ~agent =
  let exact adj row =
    Metric.Counter.incr c_agents_scanned;
    fold_gains ~kinds ?row adj host s ~agent pick None
  in
  match profile with
  | None -> exact (build_adj host s) None
  | Some pr ->
    let row = pr.rows.(agent) in
    let cur_sum = Flt.sum row in
    let before = Cost.agent_edge_cost host s agent +. cur_sum in
    if
      before < Float.infinity
      && bounds_clear ~want_add:(List.mem `Add kinds) ~want_del:(List.mem `Delete kinds)
           ~want_swap:(List.mem `Swap kinds) pr host s ~agent ~before ~cur_sum
    then begin
      Metric.Counter.incr c_agents_cleared;
      (before, None)
    end
    else exact (Flat_adj.copy pr.adj) (Some row)

let gains ?kinds host s ~agent =
  let current, rev =
    fold_gains ?kinds (build_adj host s) host s ~agent (fun acc mv g -> (mv, g) :: acc) []
  in
  (current, List.rev rev)

(* A move that connects an agent whose cost is +inf has gain +inf, and
   +inf -. +inf is NaN: on that path alone the moved profile is priced. *)
let best_cost host s ~agent = function
  | current, None -> current
  | _, Some (mv, gain) when gain = Float.infinity ->
    Cost.agent_cost host (Move.apply s ~agent mv) agent
  | current, Some (_, gain) -> current -. gain

let best_single_move_cost ?kinds ?graph host s ~agent =
  best_cost host s ~agent (fold_gains ?kinds (build_adj ?graph host s) host s ~agent pick None)
