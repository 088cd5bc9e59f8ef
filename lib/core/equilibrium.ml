module Flt = Gncg_util.Flt
module Exec = Gncg_util.Exec

type kind = NE | GE | AE

(* One span around each stateless whole-profile scan: the only probe of
   the CLI `check`/`construct` paths, which never touch the stateful
   engines.  Disabled cost: two flag reads per scan. *)
let p_check = Gncg_obs.Span.probe "equilibrium.check"

let kinds_of = function AE -> [ `Add ] | GE -> [ `Add; `Delete; `Swap ] | NE -> []

(* The network and its row matrix, built once per profile for the greedy
   kinds on the calling domain and read by every agent's scan under [Seq]
   and [Par] alike.  Spreading its n passes over the domains too took one
   more round of domain spawns, and measured slower at n = 20 to 100
   (2-core x86-64 VM).  The NE oracle builds its own. *)
let greedy_profile kind host s =
  match kind with NE -> None | GE | AE -> Some (Greedy.prepare host s)

(* The agent's current cost and the cost of its cheapest deviation of the
   kind.  The greedy kinds get both from one scan of [profile]. *)
let current_and_best ?profile kind host s u =
  match kind with
  | NE -> (Cost.agent_cost host s u, snd (Best_response.exact host s u))
  | GE | AE ->
    let ((current, _) as scanned) = Greedy.scan ~kinds:(kinds_of kind) ?profile host s ~agent:u in
    (current, Greedy.best_cost host s ~agent:u scanned)

let agent_happy ?profile kind host s u =
  let current, best = current_and_best ?profile kind host s u in
  Flt.le current best

(* The per-agent check is pure on immutable host/profile data, so under
   [Par] agents fan out across domains; the boolean checks early-exit as
   soon as any domain finds an unhappy agent.  A greedy check first scans
   agent 0 exactly and builds the profile only once that agent is happy:
   a profile far from equilibrium is refuted by one scan, not after n
   shortest-path passes. *)

let is_equilibrium ?(exec = Exec.Seq) kind host s =
  Gncg_obs.Span.with_probe p_check (fun () ->
      let n = Strategy.n s in
      match kind with
      | NE -> Exec.for_all ~exec n (agent_happy kind host s)
      | GE | AE ->
        n = 0
        || agent_happy kind host s 0
           &&
           let profile = Greedy.prepare host s in
           Exec.for_all ~exec (n - 1) (fun i -> agent_happy ~profile kind host s (i + 1)))

let is_ae ?exec = is_equilibrium ?exec AE
let is_ge ?exec = is_equilibrium ?exec GE
let is_ne ?exec = is_equilibrium ?exec NE

let factor (current, best) =
  if Flt.approx_eq current best then 1.0
  else if best <= 0.0 then if current <= 0.0 then 1.0 else Float.infinity
  else current /. best

let approx_factor kind host s =
  let profile = greedy_profile kind host s in
  let worst = ref 1.0 in
  for u = 0 to Strategy.n s - 1 do
    worst := Float.max !worst (factor (current_and_best ?profile kind host s u))
  done;
  !worst

let unhappy_agents ?(exec = Exec.Seq) kind host s =
  Gncg_obs.Span.with_probe p_check @@ fun () ->
  let n = Strategy.n s in
  let profile = greedy_profile kind host s in
  let happy = Exec.init ~exec n (agent_happy ?profile kind host s) in
  List.filter (fun u -> not happy.(u)) (List.init n (fun u -> u))

type grievance = {
  agent : int;
  current_cost : float;
  best_cost : float;
  deviation : Strategy.ISet.t option;
}

let agent_grievance ?profile kind host s u =
  let current, best, deviation =
    match kind with
    | NE ->
      let set, cost = Best_response.exact host s u in
      (Cost.agent_cost host s u, cost, Some set)
    | GE | AE ->
      let current, best = current_and_best ?profile kind host s u in
      (current, best, None)
  in
  if Flt.lt best current then
    Some { agent = u; current_cost = current; best_cost = best; deviation }
  else None

let verdict_of_grievances = function
  | [] -> Ok ()
  | gs ->
    Error
      (List.sort
         (fun a b ->
           Float.compare (b.current_cost -. b.best_cost) (a.current_cost -. a.best_cost))
         gs)

let certify ?(exec = Exec.Seq) kind host s =
  Gncg_obs.Span.with_probe p_check @@ fun () ->
  let n = Strategy.n s in
  let profile = greedy_profile kind host s in
  let per_agent = Exec.init ~exec n (agent_grievance ?profile kind host s) in
  verdict_of_grievances (List.filter_map Fun.id (Array.to_list per_agent))

let pp_grievance fmt g =
  Format.fprintf fmt "agent %d pays %.4f but could pay %.4f" g.agent g.current_cost
    g.best_cost;
  match g.deviation with
  | Some set ->
    Format.fprintf fmt " by buying {%s}"
      (String.concat ", " (List.map string_of_int (Strategy.ISet.elements set)))
  | None -> ()

(* --- one stateful scan over a live Net_state --- *)

module Tracker = struct
  module Metric = Gncg_obs.Metric
  module Span = Gncg_obs.Span

  (* Layer-3 probes: the evaluations and the span of the scan. *)
  let c_scan_evals = Metric.Counter.make "equilibrium.scan_evals"
  let p_scan = Span.probe "equilibrium.scan"

  type t = Bytes.t (* per-agent verdict, '\001' = happy *)

  let create kind st =
    let kinds =
      match kind with
      | NE -> invalid_arg "Equilibrium.Tracker.create: NE needs the best-response oracle"
      | GE | AE -> kinds_of kind
    in
    let n = Strategy.n (Net_state.profile st) in
    let happy = Bytes.make n '\000' in
    Span.with_probe p_scan (fun () ->
        for u = 0 to n - 1 do
          if fst (Fast_response.best_move_state_verdict ~kinds st ~agent:u) = None then
            Bytes.unsafe_set happy u '\001'
        done);
    Metric.Counter.add c_scan_evals n;
    happy

  let is_equilibrium t = Bytes.for_all (fun c -> c = '\001') t

  let unhappy t =
    List.filter (fun u -> Bytes.get t u = '\000') (List.init (Bytes.length t) Fun.id)
end
