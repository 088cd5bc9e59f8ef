module Flt = Gncg_util.Flt
module Changed_rows = Gncg_graph.Changed_rows
module Metric = Gncg_obs.Metric
module Span = Gncg_obs.Span

(* Layer-3 probes.  The counters shadow the per-run [metrics] record —
   same accounting, but global, mergeable and togglable at run time. *)
let c_evaluations = Metric.Counter.make "dynamics.evaluations"
let c_moves = Metric.Counter.make "dynamics.moves"
let c_skips = Metric.Counter.make "dynamics.skips"
let p_step = Span.probe "dynamics.step"
let p_run = Span.probe "dynamics.run"

type rule =
  | Best_response
  | Greedy_response
  | Add_only
  | Random_improving of Gncg_util.Prng.t

type scheduler = Round_robin | Random_order of Gncg_util.Prng.t

type step = { mover : int; before_cost : float; after_cost : float }

type outcome =
  | Converged of { profile : Strategy.t; rounds : int; steps : step list }
  | Cycle of { profiles : Strategy.t list; steps : step list }
  | Out_of_steps of { profile : Strategy.t; steps : step list }

type metrics = {
  mutable evaluations : int;
  mutable moves : int;
  mutable skips : int;
}

module Config = struct
  type t = {
    rule : rule;
    scheduler : scheduler;
    max_steps : int;
    metrics : metrics option;
  }

  (* [evaluator] is accepted and ignored: the benchmark harness still
     passes [~evaluator:`Incremental]. *)
  let make ?(max_steps = 10_000) ?evaluator:(_ : [ `Incremental ] option) ?metrics rule
      scheduler =
    { rule; scheduler; max_steps; metrics }
end

(* The profiles a run has visited, keyed by a 63-bit hash of the
   ownership pairs: the XOR of one pair hash per bought edge, so a move
   rekeys in O(deg) by XORing the mover's old strategy out and its new
   one in.  A hash hit is a revisit only once [Strategy.equal] confirms
   it against a stored profile, so a collision costs a comparison and
   never fakes a cycle.  [pair_hash] is replaceable for tests only (a
   constant hash makes every lookup collide). *)
module Visited = struct
  let default_pair_hash u v =
    let h = ((u lsl 31) lxor v) * 0x2545F4914F6CDD1D in
    let h = (h lxor (h lsr 29)) * 0x1B873593CC9E2D51 in
    h lxor (h lsr 32)

  let pair_hash = ref default_pair_hash

  type t = { hash : int -> int -> int; seen : (int, Strategy.t) Hashtbl.t }

  let create () = { hash = !pair_hash; seen = Hashtbl.create 97 }

  let strategy_key t u set = Strategy.ISet.fold (fun v h -> h lxor t.hash u v) set 0

  let key t s =
    let h = ref 0 in
    for u = 0 to Strategy.n s - 1 do
      h := !h lxor strategy_key t u (Strategy.strategy s u)
    done;
    !h

  (* The key of [s'], which differs from [s] (key [k]) in [u]'s strategy
     only. *)
  let rekey t k s s' u =
    k lxor strategy_key t u (Strategy.strategy s u) lxor strategy_key t u (Strategy.strategy s' u)

  let mem t k s = List.exists (Strategy.equal s) (Hashtbl.find_all t.seen k)

  let add t k s = Hashtbl.add t.seen k s
end

let rule_kinds = function Add_only -> [ `Add ] | _ -> [ `Add; `Delete; `Swap ]

(* Like [deviation], but also reports the mover's current cost so the
   caller never has to recompute it for the step record.  The single-edge
   rules run on [Greedy]'s stateless scan. *)
let deviation_full rule host s u =
  let commit (mv, gain) current = Some (Move.apply s ~agent:u mv, gain, current) in
  match rule with
  | Best_response ->
    let current = Cost.agent_cost host s u in
    let set, cost = Best_response.exact host s u in
    if Flt.lt cost current then
      Some (Strategy.with_strategy s u set, current -. cost, current)
    else None
  | Greedy_response | Add_only -> (
    match Greedy.scan ~kinds:(rule_kinds rule) host s ~agent:u with
    | current, Some best -> commit best current
    | _, None -> None)
  | Random_improving rng -> (
    let current, gains = Greedy.gains host s ~agent:u in
    match List.filter (fun (_, gain) -> gain > Flt.eps) gains with
    | [] -> None
    | improving ->
      let arr = Array.of_list improving in
      commit arr.(Gncg_util.Prng.int rng (Array.length arr)) current)

let deviation rule host s u =
  Option.map (fun (s', gain, _) -> (s', gain)) (deviation_full rule host s u)

(* Can the distance row of [v] enter agent [a]'s row-local verdict?  Only
   through the insertion kernel Σ_x min(d_a(x), w + d_v(x)), which is
   evaluated exactly for the targets Move.candidates deems addable. *)
let eligible_target host s a v = Move.addable host s ~agent:a v

let run cfg host start =
  let { Config.rule; scheduler; max_steps; metrics } = cfg in
  let n = Strategy.n start in
  let m = match metrics with Some m -> m | None -> { evaluations = 0; moves = 0; skips = 0 } in
  (* Hoisted out of the activation loop: the kinds list used to be
     rebuilt on every evaluation. *)
  let kinds = rule_kinds rule in
  (* The single-edge rules thread one mutable state (network + full
     distance matrix) through the whole run: a step then costs an O(n²)
     insertion update (or an affected-sources deletion) instead of a
     network rebuild per evaluation and a shortest-path pass per
     candidate. *)
  let state =
    match rule with
    | Greedy_response | Add_only -> Some (Net_state.create host start)
    | Best_response | Random_improving _ -> None
  in
  (* rowlocal.(u): u's latest "no improving move" verdict was decided with
     zero what-if Dijkstras — see Fast_response.best_move_state_verdict. *)
  let rowlocal = Array.make n false in
  let attempt s u =
    m.evaluations <- m.evaluations + 1;
    Metric.Counter.incr c_evaluations;
    match state with
    | Some st -> (
      match Fast_response.best_move_state_verdict ~kinds st ~agent:u with
      | None, rl ->
        rowlocal.(u) <- rl;
        None
      | Some (mv, gain), _ ->
        let before = Net_state.agent_cost st u in
        Some (Net_state.apply_move st ~agent:u mv, gain, before))
    | None -> deviation_full rule host s u
  in
  let visited = Visited.create () in
  (* Trace of profiles since the start, newest first, for cycle extraction.
     A revisited profile certifies an improving-move cycle under any
     scheduler: every recorded transition strictly improves its mover. *)
  let trace = ref [ start ] in
  let key = ref (Visited.key visited start) in
  Visited.add visited !key start;
  let steps = ref [] in
  (* For [Random_order] the rng is drawn exactly once per slot, in slot
     order, so a seeded run replays the identical activation stream. *)
  let next_agent slot =
    match scheduler with
    | Round_robin -> slot mod n
    | Random_order rng -> Gncg_util.Prng.int rng n
  in
  (* Convergence = every agent observed idle since the last move.  A plain
     idle-streak counter is wrong under random scheduling (the same agent
     can be drawn repeatedly). *)
  let idle = Array.make n false in
  let idle_count = ref 0 in
  let mark_idle u =
    if not idle.(u) then begin
      idle.(u) <- true;
      incr idle_count
    end
  in
  let reset_idle () =
    Array.fill idle 0 n false;
    idle_count := 0
  in
  let drop_idle a =
    if idle.(a) then begin
      idle.(a) <- false;
      decr idle_count
    end
  in
  (* After an accepted move, an idle agent [a] stays provably idle —
     byte-identical verdict to re-running the evaluator — iff its verdict
     was row-local and none of the verdict's inputs changed:

     - [a]'s own distance row is unchanged ([a] not in the changed-rows
       report, which is sound by construction);
     - no strategy pair touching [a] was modified (its purchase cost,
       owned set, addable set, and co-ownership view are all functions of
       pairs incident to [a] only);
     - no changed row belongs to a currently addable target of [a] (the
       only way another agent's row enters a row-local verdict is the
       insertion kernel over addable targets; the addable set itself is
       unchanged by the previous point).

     Everything else is re-examined.  Dijkstra-based verdicts (rowlocal
     false) depend on the whole graph and are never preserved. *)
  let untouched_by (ch : Net_state.changes) s' a =
    (not ch.Net_state.full)
    && (not (Changed_rows.mem ch.Net_state.rows a))
    && (not (List.exists (fun (x, y) -> x = a || y = a) ch.Net_state.pairs))
    &&
    let clean = ref true in
    Changed_rows.iter
      (fun v -> if !clean && eligible_target host s' a v then clean := false)
      ch.Net_state.rows;
    !clean
  in
  let settle_after_move ch s' =
    if ch.Net_state.full then reset_idle ()
    else
      for a = 0 to n - 1 do
        if idle.(a) then
          if rowlocal.(a) && untouched_by ch s' a then begin
            m.skips <- m.skips + 1;
            Metric.Counter.incr c_skips
          end
          else drop_idle a
      done
  in
  (* Move-commit bookkeeping: counters, step record, revisit detection,
     idle settlement.  Returns [Some outcome] on a certified
     improving-move cycle. *)
  let commit_move u s s' gain before =
    m.moves <- m.moves + 1;
    Metric.Counter.incr c_moves;
    steps := { mover = u; before_cost = before; after_cost = before -. gain } :: !steps;
    key := Visited.rekey visited !key s s' u;
    if Visited.mem visited !key s' then begin
      (* Extract the segment of the trace from the previous visit. *)
      let rec take acc = function
        | [] -> acc
        | p :: rest -> if Strategy.equal p s' then p :: acc else take (p :: acc) rest
      in
      let cycle = take [] !trace in
      Some (Cycle { profiles = cycle @ [ s' ]; steps = List.rev !steps })
    end
    else begin
      Visited.add visited !key s';
      trace := s' :: !trace;
      (match state with
      | Some st -> settle_after_move (Net_state.drain_changes st) s'
      | None -> reset_idle ());
      None
    end
  in
  let rec go s slot =
    if !idle_count >= n then
      Converged { profile = s; rounds = slot / n; steps = List.rev !steps }
    else if slot >= max_steps then Out_of_steps { profile = s; steps = List.rev !steps }
    else begin
      let u = next_agent slot in
      if idle.(u) then go s (slot + 1)
      else
        match Span.with_probe p_step (fun () -> attempt s u) with
        | None ->
          mark_idle u;
          go s (slot + 1)
        | Some (s', gain, before) -> (
          match commit_move u s s' gain before with
          | Some cycle -> cycle
          | None -> go s' (slot + 1))
    end
  in
  Span.with_probe p_run (fun () -> go start 0)
