(* The two dynamics workloads: greedy response on a random metric host
   (evaluation-bound) and on a tree metric (distance-core bound).  Each
   run converges [k] seeded instances through [Dynamics.run]; the traced
   run replays the engine's sequential loop through public calls, timing
   each layer call, and must reproduce the engine's counts and final
   profile exactly. *)

module H = Harness
module D = Gncg.Dynamics
module Strategy = Gncg.Strategy
module Net_state = Gncg.Net_state
module Changed_rows = Gncg_graph.Changed_rows
module Prng = Gncg_util.Prng

type spec = {
  n : int;
  quick_n : int;
  per_10s : int;  (** instances converged in a 10 s run *)
  host : Prng.t -> n:int -> Gncg.Host.t;
}

let max_steps = 200_000

let kinds = [ `Add; `Delete; `Swap ]

let config metrics =
  D.Config.make ~max_steps ~evaluator:`Incremental ~metrics D.Greedy_response D.Round_robin

type outcome = { kind : string; final : Strategy.t; evals : int; moves : int; skips : int }

let same a b =
  a.kind = b.kind && a.evals = b.evals && a.moves = b.moves && a.skips = b.skips
  && Strategy.canonical_key a.final = Strategy.canonical_key b.final

let converge host start =
  let m = { D.evaluations = 0; moves = 0; skips = 0 } in
  let kind, final =
    match D.run (config m) host start with
    | D.Converged { profile; _ } -> ("converged", profile)
    | D.Cycle { profiles; _ } -> ("cycle", List.hd profiles)
    | D.Out_of_steps { profile; _ } -> ("out-of-steps", profile)
  in
  { kind; final; evals = m.evaluations; moves = m.moves; skips = m.skips }

(* ------------------------------------------------------------- replays *)

(* Improving-move cycle detection, as the engine does it: the canonical
   key of every visited profile. *)
let visit seen s =
  H.span "dynamics.cycle_key" (fun () ->
      let key = Strategy.canonical_key s in
      Hashtbl.mem seen key || (Hashtbl.replace seen key (); false))

(* [Dynamics.run]'s sequential loop under Greedy_response, Round_robin
   and the [`Incremental] evaluator: one Net_state threaded through the
   run, and after every move the idle verdicts the change report proves
   intact are kept (the four-condition settlement rule).  Also returns
   how many evaluations were row-local. *)
let replay_greedy host start =
  let n = Strategy.n start in
  let st = Net_state.create ~require_mutable:true host start in
  let rowlocal = Array.make n false and idle = Array.make n false in
  let idle_count = ref 0 in
  let evals = ref 0 and moves = ref 0 and skips = ref 0 and rowlocal_verdicts = ref 0 in
  let seen = Hashtbl.create 97 in
  ignore (visit seen start);
  let untouched_by (ch : Net_state.changes) s' a =
    (not ch.full)
    && (not (Changed_rows.mem ch.rows a))
    && (not (List.exists (fun (x, y) -> x = a || y = a) ch.pairs))
    &&
    let clean = ref true in
    Changed_rows.iter
      (fun v -> if !clean && Gncg.Move.addable host s' ~agent:a v then clean := false)
      ch.rows;
    !clean
  in
  let settle (ch : Net_state.changes) s' =
    if ch.full then begin
      Array.fill idle 0 n false;
      idle_count := 0
    end
    else
      for a = 0 to n - 1 do
        if idle.(a) then
          if rowlocal.(a) && untouched_by ch s' a then incr skips
          else begin
            idle.(a) <- false;
            decr idle_count
          end
      done
  in
  let rec go s slot =
    if !idle_count >= n then ("converged", s)
    else if slot >= max_steps then ("out-of-steps", s)
    else
      let u = slot mod n in
      if idle.(u) then go s (slot + 1)
      else begin
        incr evals;
        let best, rl =
          H.span "fast_response.eval" (fun () ->
              Gncg.Fast_response.best_move_state_verdict ~kinds st ~agent:u)
        in
        if rl then incr rowlocal_verdicts;
        match best with
        | None ->
          rowlocal.(u) <- rl;
          idle.(u) <- true;
          incr idle_count;
          go s (slot + 1)
        | Some (mv, _gain) ->
          ignore (H.span "net_state.agent_cost" (fun () -> Net_state.agent_cost st u));
          let s' =
            H.span "net_state.apply_move" (fun () -> Net_state.apply_move st ~agent:u mv)
          in
          incr moves;
          if visit seen s' then ("cycle", s')
          else begin
            let ch =
              H.span "net_state.drain_changes" (fun () -> Net_state.drain_changes st)
            in
            H.span "dynamics.settle" (fun () -> settle ch s');
            go s' (slot + 1)
          end
      end
  in
  let kind, final = go start 0 in
  ({ kind; final; evals = !evals; moves = !moves; skips = !skips }, !rowlocal_verdicts)

(* --------------------------------------------------------------- checks *)

(* Cheap check on every fixed point: the stateful tracker's GE verdict. *)
let tracker_holds host s =
  Gncg.Equilibrium.Tracker.is_equilibrium
    (Gncg.Equilibrium.Tracker.create Gncg.Equilibrium.GE (Net_state.create host s))

(* The independent stateless oracle, on one instance per run. *)
let oracle_holds host s =
  Gncg.Equilibrium.is_ge ~exec:(Gncg_util.Exec.par ~domains:2 ()) host s

(* ------------------------------------------------------------ traced run *)

(* A quarter of the instances, each converged untraced and then replayed
   with spans right after it: the overhead compares the two under the
   same heap and machine state.  Returns the layer metrics, one note per
   replay and whether every replay reproduced its engine outcome. *)
let traced_run sub =
  let kt = List.length sub in
  let untraced = ref 0.0 and rowlocal = ref 0 in
  let replays =
    H.traced (fun () ->
        List.map
          (fun ((host, start), o) ->
            untraced := !untraced +. H.untraced_time (fun () -> converge host start);
            let r, rl = H.span "dynamics.converge" (fun () -> replay_greedy host start) in
            rowlocal := !rowlocal + rl;
            (r, o))
          sub)
  in
  let per = float_of_int kt in
  let total f = float_of_int (List.fold_left (fun acc (r, _) -> acc + f r) 0 replays) in
  let evals = total (fun r -> r.evals) and skips = total (fun r -> r.skips) in
  let share num den = if den > 0.0 then num /. den else 0.0 in
  let fracs, self, wall =
    H.layer_fracs ~root:"dynamics.converge"
      [
        ("fast_response.eval_frac", "fast_response.eval");
        ("net_state.apply_frac", "net_state.apply_move");
        ("net_state.cost_frac", "net_state.agent_cost");
        ("net_state.drain_frac", "net_state.drain_changes");
        ("dynamics.cycle_key_frac", "dynamics.cycle_key");
        ("dynamics.settle_frac", "dynamics.settle");
      ]
  in
  let alloc_mb name = H.mb_of_words (self name).self_words /. per in
  let layers =
    fracs
    @ [
        ("trace.overhead_frac", (wall /. !untraced) -. 1.0);
        ("fast_response.evals", evals /. per);
        ("fast_response.eval_alloc_mb", alloc_mb "fast_response.eval");
        ("fast_response.rowlocal_frac", share (float_of_int !rowlocal) evals);
        ("net_state.apply_alloc_mb", alloc_mb "net_state.apply_move");
        ("net_state.moves", float_of_int (self "net_state.apply_move").calls /. per);
        ("dynamics.skips", skips /. per);
        ("dynamics.skip_frac", share skips (evals +. skips));
      ]
    @ List.map
        (fun c -> (c, H.counter_per c kt))
        [
          "incr_apsp.rows_relaxed";
          "incr_apsp.rows_changed";
          "incr_apsp.deletions";
          "incr_apsp.deletion_rows_recomputed";
          "incr_apsp.whatif_sssp";
        ]
  in
  let notes =
    List.map
      (fun (r, o) ->
        Printf.sprintf "replay %s: %d evaluations, %d moves, %d skips (engine %d/%d/%d)"
          r.kind r.evals r.moves r.skips o.evals o.moves o.skips)
      replays
  in
  (layers, notes, List.for_all (fun (r, o) -> same r o) replays)

(* ------------------------------------------------------------------ run *)

let run spec (cfg : H.cfg) : H.result =
  let n = if cfg.quick then spec.quick_n else spec.n in
  let k = H.scaled cfg ~per_10s:spec.per_10s ~quick:3 in
  let build () =
    List.init k (fun i ->
        let rng = Prng.create (H.instance_seed cfg i) in
        let host = spec.host rng ~n in
        (host, Gncg_workload.Instances.random_profile rng host))
  in
  let instances = build () in
  let host0, start0 = List.hd instances in
  (* Warm-up: instance 0 once, untimed; the timed pass must repeat it. *)
  let warm = converge host0 start0 in
  let timed =
    List.map
      (fun (host, start) ->
        let (o, alloc), s =
          H.calibrated (fun () ->
              let a0 = Gc.allocated_bytes () in
              let o = converge host start in
              (o, Gc.allocated_bytes () -. a0))
        in
        (o, s, alloc))
      instances
  in
  let rss = H.vmhwm_mb None in
  (* Set-up is building every input of the run: the median of five timed
     builds, taken after the timed work, when neither a cold CPU nor a
     growing heap is left to tax the first ones. *)
  let setups = List.init 5 (fun _ -> snd (H.calibrated build)) in
  let outcomes = List.map (fun (o, _, _) -> o) timed in
  let latencies = List.map (fun (_, s, _) -> s) timed in
  let bad =
    List.filter
      (fun ((host, _), o) ->
        o.kind = "out-of-steps" || (o.kind = "converged" && not (tracker_holds host o.final)))
      (List.combine instances outcomes)
  in
  let o0 = List.hd outcomes in
  let checks =
    [
      ("warm-up and timed outcome agree", same warm o0);
      ("no run out of steps; every fixed point passes the GE tracker", bad = []);
      ( "instance 0 passes the stateless equilibrium oracle",
        o0.kind <> "converged" || oracle_holds host0 o0.final );
    ]
  in
  let digest =
    H.digest
      (String.concat "\n"
         (List.map (fun o -> o.kind ^ ":" ^ Strategy.canonical_key o.final) outcomes))
  in
  let median_of f = H.median (List.map f timed) in
  let metrics =
    H.op_metrics ~setups ~latencies ~rss_mb:rss
    @ [ ("run.alloc_mb_per_op", median_of (fun (_, _, a) -> a /. 1e6)) ]
  in
  let note =
    Printf.sprintf "%d instances at n=%d, outcomes {%s}, median %.0f evaluations, %.0f moves"
      k n
      (String.concat "," (List.sort_uniq compare (List.map (fun o -> o.kind) outcomes)))
      (median_of (fun (o, _, _) -> float_of_int o.evals))
      (median_of (fun (o, _, _) -> float_of_int o.moves))
  in
  let result =
    { H.attempted = k; failed = List.length bad; checks; digest; metrics; notes = [ note ] }
  in
  if not cfg.traced then result
  else
    let sub = List.filteri (fun i _ -> i < max 1 (k / 4)) (List.combine instances outcomes) in
    let layers, notes, replica_ok = traced_run sub in
    {
      result with
      checks = checks @ [ ("traced replay matches the engine", replica_ok) ];
      metrics =
        metrics @ layers @ [ ("trace.replica_match", if replica_ok then 1.0 else 0.0) ];
      notes = note :: notes;
    }
