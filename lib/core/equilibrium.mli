(** Equilibrium concepts of the paper (Sec. 1.1).

    - NE: no agent has any improving strategy change;
    - GE (greedy equilibrium): no agent improves by a single add, delete or
      swap;
    - AE (add-only equilibrium): no agent improves by a single add.

    NE ⊆ GE ⊆ AE.  Each concept has a β-approximate version: no agent can
    reduce her cost below [cost/β] with an allowed deviation. *)

type kind = NE | GE | AE

(** The boolean checks all take [?exec] (default [Exec.Seq]): under
    [Par] the per-agent checks fan out across OCaml 5 domains with an
    early exit once any domain finds an unhappy agent.  Same verdict as
    the sequential scan (property-tested); only the set of agents
    actually inspected on a negative answer differs.  The GE/AE checks
    here ({!unhappy_agents}, {!certify} and {!approx_factor} too) build
    the profile's network once and share it, read-only, across every
    agent's {!Greedy.scan}. *)

val is_ae : ?exec:Gncg_util.Exec.t -> Host.t -> Strategy.t -> bool

val is_ge : ?exec:Gncg_util.Exec.t -> Host.t -> Strategy.t -> bool

val is_ne :
  ?oracle:[ `Branch_and_bound | `Enumerate ] ->
  ?exec:Gncg_util.Exec.t ->
  Host.t ->
  Strategy.t ->
  bool
(** Exact Nash check via best responses; exponential.  The default oracle
    is the branch-and-bound. *)

val is_equilibrium : ?exec:Gncg_util.Exec.t -> kind -> Host.t -> Strategy.t -> bool

val agent_approx_factor : kind -> Host.t -> Strategy.t -> int -> float
(** [cost(u) / best-deviation-cost(u)] for one agent (1 when already
    optimal; can be below 1 only by tolerance). *)

val approx_factor : kind -> Host.t -> Strategy.t -> float
(** The smallest β such that the profile is a β-approximate equilibrium of
    the given kind: the maximum of the per-agent factors. *)

val is_beta : kind -> beta:float -> Host.t -> Strategy.t -> bool

val unhappy_agents : ?exec:Gncg_util.Exec.t -> kind -> Host.t -> Strategy.t -> int list
(** Agents with an improving deviation of the given kind, in ascending
    agent order regardless of [exec]; under [Par] there is no early exit
    since every agent is reported. *)

type grievance = {
  agent : int;
  current_cost : float;
  best_cost : float;
  deviation : Strategy.ISet.t option;
      (** the improving strategy for [NE]; [None] for single-move kinds *)
}

val certify :
  ?exec:Gncg_util.Exec.t -> kind -> Host.t -> Strategy.t -> (unit, grievance list) result
(** [Ok ()] when the profile is an equilibrium of the kind; otherwise the
    per-agent evidence, sorted by decreasing improvement.  Powers the
    human-readable reports of the CLI.  Verdict and ordering are
    independent of [exec]. *)

val pp_grievance : Format.formatter -> grievance -> unit

(** Cached equilibrium scanning over a live {!Net_state.t}.

    Dynamics and search loops repeatedly ask "is this still an
    equilibrium / who is unhappy?" after single-move perturbations.  A
    tracker caches every agent's verdict together with its row-locality
    flag ({!Fast_response.best_move_state_verdict}); {!Tracker.refresh}
    drains the state's change report and re-evaluates only the agents
    whose cached verdict could have been invalidated — the same
    preservation rule as the dirty-agent skipping in [Dynamics.run],
    hence byte-identical to a full rescan (property-tested). *)
module Tracker : sig
  type t

  val create : kind -> Net_state.t -> t
  (** Full initial scan of every agent.  The tracker holds onto the state
      (apply moves through {!Net_state.apply_move} on it, then
      {!refresh}); it drains any change report already pending.  Raises
      [Invalid_argument] for [NE] — single-move verdicts cover GE and AE
      only.  Each verdict comes from
      {!Fast_response.best_move_state_verdict}. *)

  val state : t -> Net_state.t

  val kind : t -> kind

  val refresh : t -> unit
  (** Re-evaluates exactly the agents whose cached verdict the change
      report cannot prove intact (own row changed, incident strategy pair
      modified, a changed row among their addable targets, or a verdict
      that needed what-if Dijkstras). *)

  val last_reevaluated : t -> int
  (** Number of agents the most recent {!refresh} (or {!create})
      re-evaluated — the instrumentation behind the "strictly fewer than
      n after one local move" guarantee in the tests. *)

  val is_equilibrium : t -> bool

  val unhappy : t -> int list
  (** Ascending list of agents with an improving single move of the
      tracker's kind, per the cached verdicts. *)
end
