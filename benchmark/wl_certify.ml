(* The certification workload: [Equilibrium.certify GE] on converged
   greedy profiles, under [Exec.default] — what `gncg check` runs.  It is
   read-only and stateless (a network rebuild and a Greedy move scan per
   agent, no Net_state), on the same host family as dyn-greedy-n100, so
   the engine's writes and reads are measured side by side.  The traced
   run replays certify's per-agent loop through public calls. *)

module H = Harness
module D = Gncg.Dynamics
module Eq = Gncg.Equilibrium
module Prng = Gncg_util.Prng

type spec = {
  n : int;
  quick_n : int;
  per_10s : int;  (** profiles certified in a 10 s run *)
  host : Prng.t -> n:int -> Gncg.Host.t;
}

let kinds = [ `Add; `Delete; `Swap ]

let agents_string agents = String.concat "," (List.map string_of_int (List.sort compare agents))

let certify ?(exec = Gncg_util.Exec.seq) host s =
  match Eq.certify ~exec Eq.GE host s with
  | Ok () -> "ok"
  | Error gs -> agents_string (List.map (fun g -> g.Eq.agent) gs)

(* [certify]'s per-agent loop: build G(s), the agent's cost on it, and
   the best single move's cost; agents that can improve are grievances. *)
let replay_certify host s =
  let grievances =
    List.filter
      (fun u ->
        let graph = H.span "network.graph" (fun () -> Gncg.Network.graph host s) in
        let current =
          H.span "cost.agent_cost" (fun () -> Gncg.Cost.agent_cost ~graph host s u)
        in
        let best =
          H.span "greedy.move_scan" (fun () ->
              Gncg.Greedy.best_single_move_cost ~kinds ~graph host s ~agent:u)
        in
        Gncg_util.Flt.lt best current)
      (List.init (Gncg.Strategy.n s) Fun.id)
  in
  if grievances = [] then "ok" else agents_string grievances

let tracker_holds host s =
  Eq.Tracker.is_equilibrium (Eq.Tracker.create Eq.GE (Gncg.Net_state.create host s))

(* A quarter of the profiles, each certified untraced and then replayed
   with spans right after it. *)
let traced_run sub verdicts =
  let kt = List.length sub in
  let untraced = ref 0.0 in
  let replays =
    H.traced (fun () ->
        List.map
          (fun (host, s) ->
            untraced := !untraced +. H.untraced_time (fun () -> certify host s);
            H.span "equilibrium.certify" (fun () -> replay_certify host s))
          sub)
  in
  let fracs, _, wall =
    H.layer_fracs ~root:"equilibrium.certify"
      [
        ("network.graph_build_frac", "network.graph");
        ("cost.agent_cost_frac", "cost.agent_cost");
        ("greedy.move_scan_frac", "greedy.move_scan");
      ]
  in
  let candidates =
    List.fold_left
      (fun acc (host, s) ->
        List.fold_left
          (fun acc u -> acc + List.length (Gncg.Move.candidates ~kinds host s ~agent:u))
          acc
          (List.init (Gncg.Strategy.n s) Fun.id))
      0 sub
  in
  let host0, s0 = List.hd sub in
  let par2 = Gncg_util.Exec.par ~domains:2 () in
  (* The first parallel call starts the domain pool; it is not timed. *)
  ignore (certify ~exec:par2 host0 s0);
  let _, t1 = H.time (fun () -> certify host0 s0) in
  let v2, t2 = H.time (fun () -> certify ~exec:par2 host0 s0) in
  let tracker_s =
    H.sum (List.map (fun (host, s) -> snd (H.time (fun () -> tracker_holds host s))) sub)
  in
  let layers =
    fracs
    @ [
        ("trace.overhead_frac", (wall /. !untraced) -. 1.0);
        ("greedy.candidates", float_of_int candidates /. float_of_int kt);
        ("exec.par2_speedup", t1 /. t2);
        ("equilibrium.tracker_speedup", !untraced /. tracker_s);
      ]
  in
  let note =
    Printf.sprintf "replayed %d certifications, verdicts {%s}; %.2f us per scanned candidate"
      kt
      (String.concat "," (List.sort_uniq compare replays))
      (List.assoc "greedy.move_scan_frac" fracs *. wall /. float_of_int candidates *. 1e6)
  in
  (layers, note, replays = List.filteri (fun i _ -> i < kt) verdicts && v2 = List.hd verdicts)

let run spec (cfg : H.cfg) : H.result =
  let n = if cfg.quick then spec.quick_n else spec.n in
  let k = H.scaled cfg ~per_10s:spec.per_10s ~quick:3 in
  (* Inputs: converged greedy profiles, each timed as one set-up.  An
     instance whose dynamics do not converge has no fixed point to
     certify; the next seed replaces it, so the input set is still a
     function of the seed. *)
  let rec gather i acc =
    if List.length acc = k || i >= 4 * k then List.rev acc
    else
      let input, s =
        H.calibrated (fun () ->
            let rng = Prng.create (H.instance_seed cfg i) in
            let host = spec.host rng ~n in
            let start = Gncg_workload.Instances.random_profile rng host in
            match
              D.run
                (D.Config.make ~max_steps:200_000 ~evaluator:`Incremental D.Greedy_response
                   D.Round_robin)
                host start
            with
            | D.Converged { profile; _ } -> Some (host, profile)
            | _ -> None)
      in
      gather (i + 1) (match input with Some x -> (x, s) :: acc | None -> acc)
  in
  let inputs, setups = List.split (gather 0 []) in
  let k = List.length inputs in
  let host0, s0 = List.hd inputs in
  let warm = certify host0 s0 in
  let timed =
    List.map
      (fun (host, s) ->
        let (v, alloc), t =
          H.calibrated (fun () ->
              let a0 = Gc.allocated_bytes () in
              let v = certify host s in
              (v, Gc.allocated_bytes () -. a0))
        in
        (v, t, alloc))
      inputs
  in
  let rss = H.vmhwm_mb None in
  let verdicts = List.map (fun (v, _, _) -> v) timed in
  let latencies = List.map (fun (_, t, _) -> t) timed in
  let failed = List.length (List.filter (fun v -> v <> "ok") verdicts) in
  let checks =
    [
      ("every converged profile certifies as a GE", failed = 0);
      ( "the stateful tracker agrees on every profile",
        List.for_all (fun (host, s) -> tracker_holds host s) inputs );
      ("warm-up and timed verdict agree", warm = List.hd verdicts);
    ]
  in
  let digest =
    H.digest
      (String.concat "\n"
         (List.map2 (fun (_, s) v -> v ^ ":" ^ Gncg.Strategy.canonical_key s) inputs verdicts))
  in
  let metrics =
    H.op_metrics ~setups ~latencies ~rss_mb:rss
    @ [ ("run.alloc_mb_per_op", H.median (List.map (fun (_, _, a) -> a /. 1e6) timed)) ]
  in
  let note =
    Printf.sprintf "%d converged profiles at n=%d certified, verdicts {%s}" k n
      (String.concat "," (List.sort_uniq compare verdicts))
  in
  let result = { H.attempted = k; failed; checks; digest; metrics; notes = [ note ] } in
  if not cfg.traced then result
  else
    let sub = List.filteri (fun i _ -> i < max 1 (k / 4)) inputs in
    let layers, more, replica_ok = traced_run sub verdicts in
    {
      result with
      checks = checks @ [ ("traced replay and Par 2 scan match certify", replica_ok) ];
      metrics =
        metrics @ layers @ [ ("trace.replica_match", if replica_ok then 1.0 else 0.0) ];
      notes = [ note; more ];
    }
