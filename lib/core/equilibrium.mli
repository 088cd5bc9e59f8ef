(** Equilibrium concepts of the paper (Sec. 1.1).

    - NE: no agent has any improving strategy change;
    - GE (greedy equilibrium): no agent improves by a single add, delete or
      swap;
    - AE (add-only equilibrium): no agent improves by a single add.

    NE ⊆ GE ⊆ AE.  Each concept has a β-approximate version: no agent can
    reduce her cost below [cost/β] with an allowed deviation. *)

type kind = NE | GE | AE

(** The boolean checks, {!unhappy_agents} and {!certify} take [?exec]
    (default [Exec.Seq]): under [Par] the per-agent checks fan out
    across OCaml 5 domains, and the boolean ones exit early once any
    domain finds an unhappy agent.  Same verdict as the sequential scan
    (property-tested); only the set of agents actually inspected on a
    negative answer differs.  The GE/AE checks build one
    {!Greedy.profile} per profile on the calling domain: the network in
    flat form and its distance row from every vertex.  Every agent's
    {!Greedy.scan} reads it, read-only, clears the agent from bounds on
    those rows when it can, and runs the exact scan only where a bound
    cannot.  The boolean checks scan agent 0 exactly first and build
    the profile only when that agent is happy, so a profile far from
    equilibrium costs one scan. *)

val is_ae : ?exec:Gncg_util.Exec.t -> Host.t -> Strategy.t -> bool

val is_ge : ?exec:Gncg_util.Exec.t -> Host.t -> Strategy.t -> bool

val is_ne : ?exec:Gncg_util.Exec.t -> Host.t -> Strategy.t -> bool
(** Exact Nash check via the branch-and-bound best response
    ({!Best_response.exact}); exponential. *)

val is_equilibrium : ?exec:Gncg_util.Exec.t -> kind -> Host.t -> Strategy.t -> bool

val approx_factor : kind -> Host.t -> Strategy.t -> float
(** The smallest β such that the profile is a β-approximate equilibrium of
    the given kind: the maximum of the per-agent factors. *)

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

(** The stateful equilibrium scan over a live {!Net_state.t}: one
    {!Fast_response.best_move_state_verdict} per agent against the
    state's maintained distance matrix, instead of a shortest-path pass
    per agent on a freshly built network.  Same verdicts as
    {!unhappy_agents} (property-tested). *)
module Tracker : sig
  type t

  val create : kind -> Net_state.t -> t
  (** Scans every agent of the state's current profile once; the state
      is not modified.  Raises [Invalid_argument] for [NE] — single-move
      verdicts cover GE and AE only. *)

  val is_equilibrium : t -> bool

  val unhappy : t -> int list
  (** Ascending list of agents with an improving single move of the
      scanned kind. *)
end
