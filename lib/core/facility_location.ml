module Flt = Gncg_util.Flt
module Metric = Gncg_obs.Metric

let c_bb_nodes = Metric.Counter.make "facility_location.bb_nodes"

type instance = {
  open_cost : float array;
  service : float array array;
  forced_open : bool array;
}

let make ?forced_open ~open_cost ~service () =
  let nf = Array.length open_cost in
  if Array.length service <> nf then
    invalid_arg "Facility_location.make: service rows must match facilities";
  let nc = if nf = 0 then 0 else Array.length service.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> nc then invalid_arg "Facility_location.make: ragged service")
    service;
  let forced_open =
    match forced_open with
    | None -> Array.make nf false
    | Some f ->
      if Array.length f <> nf then invalid_arg "Facility_location.make: forced_open size";
      Array.copy f
  in
  { open_cost; service; forced_open }

let num_facilities inst = Array.length inst.open_cost

let num_clients inst =
  if num_facilities inst = 0 then 0 else Array.length inst.service.(0)

let cost inst open_set =
  let nf = num_facilities inst and nc = num_clients inst in
  if Array.length open_set <> nf then invalid_arg "Facility_location.cost: size";
  let ok_forced = ref true in
  for f = 0 to nf - 1 do
    if inst.forced_open.(f) && not open_set.(f) then ok_forced := false
  done;
  if not !ok_forced then Float.infinity
  else begin
    let total = ref 0.0 in
    for f = 0 to nf - 1 do
      if open_set.(f) then total := !total +. inst.open_cost.(f)
    done;
    for c = 0 to nc - 1 do
      let best = ref Float.infinity in
      for f = 0 to nf - 1 do
        if open_set.(f) && inst.service.(f).(c) < !best then best := inst.service.(f).(c)
      done;
      total := !total +. !best
    done;
    !total
  end

(* Per-client (best, second-best) open service costs: lets every single
   open/close/swap move be evaluated in O(clients). *)
type assignment = { best : float array; best_f : int array; second : float array }

let compute_assignment inst open_set =
  let nf = num_facilities inst and nc = num_clients inst in
  let best = Array.make nc Float.infinity in
  let best_f = Array.make nc (-1) in
  let second = Array.make nc Float.infinity in
  for f = 0 to nf - 1 do
    if open_set.(f) then
      for c = 0 to nc - 1 do
        let d = inst.service.(f).(c) in
        if d < best.(c) then begin
          second.(c) <- best.(c);
          best.(c) <- d;
          best_f.(c) <- f
        end
        else if d < second.(c) then second.(c) <- d
      done
  done;
  { best; best_f; second }

(* [a -. b] that treats two infinities of the same sign as equal: service
   costs may be infinite and inf -. inf would poison deltas with NaN. *)
let diff a b = if a = b then 0.0 else a -. b

let open_gain inst asg f =
  (* Cost delta of opening facility [f] (assumed closed): opening cost
     minus the per-client improvements. *)
  if not (Float.is_finite inst.open_cost.(f)) then Float.infinity
  else begin
    let nc = num_clients inst in
    let delta = ref inst.open_cost.(f) in
    for c = 0 to nc - 1 do
      let d = inst.service.(f).(c) in
      if d < asg.best.(c) then delta := !delta +. diff d asg.best.(c)
    done;
    !delta
  end

let close_gain inst asg f =
  (* Cost delta of closing facility [f] (assumed open): clients served by
     [f] fall back to their second-best facility. *)
  let nc = num_clients inst in
  let delta = ref (-.inst.open_cost.(f)) in
  for c = 0 to nc - 1 do
    if asg.best_f.(c) = f then delta := !delta +. diff asg.second.(c) asg.best.(c)
  done;
  !delta

let swap_gain inst asg f_out f_in =
  (* Close [f_out], open [f_in]: each client picks the best among
     (new facility, previous best if not f_out, previous second). *)
  if not (Float.is_finite inst.open_cost.(f_in)) then Float.infinity
  else begin
    let nc = num_clients inst in
    let delta = ref (inst.open_cost.(f_in) -. inst.open_cost.(f_out)) in
    for c = 0 to nc - 1 do
      let d_new = inst.service.(f_in).(c) in
      let d_before = asg.best.(c) in
      let d_after =
        if asg.best_f.(c) = f_out then Float.min d_new asg.second.(c)
        else Float.min d_new d_before
      in
      delta := !delta +. diff d_after d_before
    done;
    !delta
  end

let improve_step inst open_set =
  let nf = num_facilities inst in
  let asg = compute_assignment inst open_set in
  let current = cost inst open_set in
  let tol = Flt.tol current current in
  let best_delta = ref 0.0 in
  let best_move = ref None in
  let consider delta mv =
    if Flt.lt ~tol delta !best_delta then begin
      best_delta := delta;
      best_move := Some mv
    end
  in
  for f = 0 to nf - 1 do
    if not open_set.(f) then consider (open_gain inst asg f) (`Open f)
    else if not inst.forced_open.(f) then consider (close_gain inst asg f) (`Close f)
  done;
  for f_out = 0 to nf - 1 do
    if open_set.(f_out) && not inst.forced_open.(f_out) then
      for f_in = 0 to nf - 1 do
        if not open_set.(f_in) then consider (swap_gain inst asg f_out f_in) (`Swap (f_out, f_in))
      done
  done;
  match !best_move with
  | None -> None
  | Some mv ->
    let next = Array.copy open_set in
    (match mv with
    | `Open f -> next.(f) <- true
    | `Close f -> next.(f) <- false
    | `Swap (f_out, f_in) ->
      next.(f_out) <- false;
      next.(f_in) <- true);
    Some (next, cost inst next)

let local_search inst =
  let nf = num_facilities inst in
  (* Start from everything affordable open (forced facilities included even
     when unaffordable, so infeasibility surfaces as an infinite cost). *)
  let open_set =
    Array.init nf (fun f -> Float.is_finite inst.open_cost.(f) || inst.forced_open.(f))
  in
  let rec loop open_set c =
    match improve_step inst open_set with
    | Some (next, c') when Flt.lt c' c -> loop next c'
    | _ -> (open_set, c)
  in
  loop open_set (cost inst open_set)

(* The dual-ascent lower bound of one branch-and-bound node (Erlenkotter's
   DUALOC, Oper. Res. 1978).  The node's open facilities act as one free
   facility serving client [j] at [served.(j)]; the undecided facilities
   with a finite opening cost are [avail.(first) .. avail.(na-1)].  For
   any client prices [v], every completion S of the node costs at least

     opened + Σ_j v_j − Σ_{i ∈ avail} max(0, Σ_j (v_j − c_ij)⁺ − f_i)

   provided [v_j <= served.(j)] (assign each client to its facility in S
   and charge the excess of [v_j] over its service cost to that
   facility).  The ascent starts from [v_j = min(served_j, min_i c_ij)],
   which is the suffix-minimum bound, and raises each price in turn to
   its next service level while every facility's slack
   [f_i − Σ_j (v_j − c_ij)⁺] stays non-negative, until no price moves.
   The penalty is then recomputed from the final prices, so the bound
   holds whatever rounding did to the tracked slacks.  Returns the bound
   and [mag], the magnitude that the rounding margin scales with
   (docs/ALGORITHMS.md).  Costs are non-negative. *)
type ascent = { v : float array; slack : float array; avail : int array }

let[@inline] fmin (a : float) b = if b < a then b else a

let dual_bound inst sc ~first ~served opened =
  let nc = Array.length served and na = Array.length sc.avail in
  let v = sc.v and slack = sc.slack and avail = sc.avail in
  let feasible = ref true in
  for j = 0 to nc - 1 do
    let x = ref served.(j) in
    for a = first to na - 1 do
      x := fmin !x inst.service.(avail.(a)).(j)
    done;
    if !x = Float.infinity then feasible := false;
    v.(j) <- !x
  done;
  (* A client that nothing left can serve makes every completion cost
     infinity. *)
  if not !feasible then (Float.infinity, 0.0)
  else begin
    for a = first to na - 1 do
      slack.(a) <- inst.open_cost.(avail.(a))
    done;
    (* Each pass lifts a price by at most one level, so na + 1 passes
       allow a full ascent; the cap only guarantees termination, since
       the bound is valid after any number of passes. *)
    let changed = ref true and passes = ref 0 in
    while !changed && !passes <= na do
      changed := false;
      incr passes;
      for j = 0 to nc - 1 do
        let vj = v.(j) and bj = served.(j) in
        if vj < bj then begin
          let next = ref bj and room = ref Float.infinity in
          for a = first to na - 1 do
            let c = inst.service.(avail.(a)).(j) in
            if c <= vj then room := fmin !room slack.(a) else if c < !next then next := c
          done;
          let delta = fmin (!next -. vj) !room in
          if delta > 0.0 then begin
            for a = first to na - 1 do
              if inst.service.(avail.(a)).(j) <= vj then slack.(a) <- slack.(a) -. delta
            done;
            v.(j) <- fmin (vj +. delta) bj;
            changed := true
          end
        end
      done
    done;
    let total = ref opened in
    for j = 0 to nc - 1 do
      total := !total +. v.(j)
    done;
    let mag = ref !total in
    for a = first to na - 1 do
      let i = avail.(a) in
      let pos = ref 0.0 in
      for j = 0 to nc - 1 do
        let e = v.(j) -. inst.service.(i).(j) in
        if e > 0.0 then pos := !pos +. e
      done;
      if !pos > 0.0 then begin
        let f = inst.open_cost.(i) in
        mag := !mag +. !pos +. f;
        if !pos > f then total := !total -. (!pos -. f)
      end
    done;
    (!total, !mag)
  end

(* The branch-and-bound proper.  [start] seeds the incumbent; the DFS
   order, the suffix-minimum bound and the leaf rule are those of the
   plain search (kept in test/test_facility.ml as its specification), so
   it meets the same incumbents in the same order and returns the same
   set and cost.  The dual-ascent bound only prunes a node when even its
   bound minus the rounding margin is not [Flt.lt] the incumbent, that
   is, when no leaf below would have replaced the incumbent: a leaf total
   is at least that bound, and a larger cost only widens the game
   tolerance it would have to clear. *)
let solve_exact ?start inst =
  let nf = num_facilities inst and nc = num_clients inst in
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
    let nonneg =
      Array.for_all (fun x -> x >= 0.0) inst.open_cost
      && Array.for_all (Array.for_all (fun x -> x >= 0.0)) inst.service
    in
    let avail =
      Array.of_list
        (List.filter (fun f -> Float.is_finite inst.open_cost.(f)) (List.init nf Fun.id))
    in
    (* first_avail.(f): the first position in [avail] of a facility >= f. *)
    let first_avail = Array.make (nf + 1) (Array.length avail) in
    Array.iteri (fun a f -> first_avail.(f) <- a) avail;
    for f = nf - 1 downto 0 do
      first_avail.(f) <- min first_avail.(f) first_avail.(f + 1)
    done;
    let sc =
      { v = Array.make nc 0.0; slack = Array.make (Array.length avail) 0.0; avail }
    in
    (* The dual bound and any leaf total below the node are float sums
       of at most nf + nc + 4 rounded terms: the node's margin is
       [Flt.sum_margin] over them at the bound's magnitude, about twice
       their rounding error (docs/ALGORITHMS.md). *)
    let terms = nf + nc + 4 in
    let incumbent_set, incumbent_cost =
      match start with Some start -> start | None -> local_search inst
    in
    let best_set = ref (Array.copy incumbent_set) in
    let best_cost = ref incumbent_cost in
    let open_set = Array.make nf false in
    let best_served = Array.make nc Float.infinity in
    (* The undo trail of [best_served]: (client, previous value) pairs. *)
    let trail_c = Array.make (nf * nc) 0 and trail_v = Array.make (nf * nc) 0.0 in
    let top = ref 0 in
    (* DFS over facility indices; [opened] is the running opening cost and
       [best_served] the per-client best over currently-opened ones. *)
    let rec dfs f opened =
      Metric.Counter.incr c_bb_nodes;
      if f = nf then begin
        let total = ref opened in
        for c = 0 to nc - 1 do
          total := !total +. best_served.(c)
        done;
        if Flt.lt !total !best_cost then begin
          best_cost := !total;
          best_set := Array.copy open_set
        end
      end
      else begin
        let bound = ref opened in
        for c = 0 to nc - 1 do
          bound := !bound +. Float.min best_served.(c) suffix.(f).(c)
        done;
        if
          Flt.lt !bound !best_cost
          && not
               (nonneg
               &&
               let dual, mag =
                 dual_bound inst sc ~first:first_avail.(f) ~served:best_served opened
               in
               not (Flt.lt (dual -. Flt.sum_margin terms mag) !best_cost))
        then begin
          (* Branch 1: open facility f (unless its cost already dooms us). *)
          if inst.open_cost.(f) < Float.infinity then begin
            let mark = !top in
            open_set.(f) <- true;
            for c = 0 to nc - 1 do
              if inst.service.(f).(c) < best_served.(c) then begin
                trail_c.(!top) <- c;
                trail_v.(!top) <- best_served.(c);
                incr top;
                best_served.(c) <- inst.service.(f).(c)
              end
            done;
            dfs (f + 1) (opened +. inst.open_cost.(f));
            open_set.(f) <- false;
            while !top > mark do
              decr top;
              best_served.(trail_c.(!top)) <- trail_v.(!top)
            done
          end;
          (* Branch 2: keep f closed (forbidden for forced facilities). *)
          if not inst.forced_open.(f) then dfs (f + 1) opened
        end
      end
    in
    dfs 0 0.0;
    (!best_set, !best_cost)
  end
