(** Response dynamics.

    Agents move one at a time in an activation order fixed by the
    scheduler.  The paper shows these dynamics need not converge (no
    finite improvement property — Cor. 1, Thms. 14, 17): the engine
    therefore detects both convergence and revisited profiles (cycles).

    The loop is sequential by definition: each activation sees every
    move committed before it, which is the sequence an improving-move
    cycle certificate is stated on. *)

type rule =
  | Best_response  (** exact best response (branch-and-bound) *)
  | Greedy_response  (** best single add/delete/swap *)
  | Add_only  (** best single add *)
  | Random_improving of Gncg_util.Prng.t
      (** a uniformly random improving single-edge move — the most
          permissive improving dynamics, used when hunting for the
          improving-move cycles of Thms. 14 and 17 *)

type scheduler =
  | Round_robin
  | Random_order of Gncg_util.Prng.t
      (** a fresh uniformly random agent each activation *)

type step = { mover : int; before_cost : float; after_cost : float }

(** Instrumentation filled by {!run} when passed in via {!Config.make}:
    [evaluations] counts single-agent evaluator calls, [moves] accepted
    moves, and [skips] agents whose idle verdict was preserved across an
    accepted move by the dirty-row analysis (incremental evaluator only)
    instead of being re-evaluated.

    Subsumed by the observability layer: {!run} feeds the same
    accounting into the [dynamics.*] counters of [Gncg_obs.Metric]
    (enabled via [--profile] / [Gncg_obs.Obs.set_profiling]), which
    also survive across runs and merge across domains.  The record stays
    for callers that want per-run numbers without global state; build it
    literally ([{ evaluations = 0; moves = 0; skips = 0 }]). *)
type metrics = {
  mutable evaluations : int;
  mutable moves : int;
  mutable skips : int;
}

type outcome =
  | Converged of { profile : Strategy.t; rounds : int; steps : step list }
      (** No agent can improve (w.r.t. the rule): a NE / GE / AE. *)
  | Cycle of { profiles : Strategy.t list; steps : step list }
      (** The profile sequence revisited a previous state, certifying an
          improving-move cycle in the sense of the paper (a sequence of
          improving moves starting and ending at the same strategy
          vector) — every recorded transition strictly improves its mover,
          so a revisit is a certificate under any scheduler.  [profiles]
          lists the cycle states in order; the first and last entries are
          equal. *)
  | Out_of_steps of { profile : Strategy.t; steps : step list }

(** The engine configuration: what used to be a sprawl of optional
    arguments on [run].  Build one with {!Config.make}, override fields
    with [{ cfg with ... }]. *)
module Config : sig
  type t = {
    rule : rule;
    scheduler : scheduler;
    max_steps : int;
    evaluator : Evaluator.t;
    metrics : metrics option;
  }

  val make :
    ?max_steps:int ->
    ?evaluator:Evaluator.t ->
    ?metrics:metrics ->
    rule ->
    scheduler ->
    t
  (** Defaults: [max_steps] 10_000, [evaluator] [`Reference], no
      metrics record. *)
end

val run : Config.t -> Host.t -> Strategy.t -> outcome
(** Runs until convergence, cycle detection or [Config.max_steps] agent
    activations.  Convergence means every agent has been observed idle
    since the last accepted move.  [Config.evaluator] selects the
    single-move engine for [Greedy_response]/[Add_only]:

    - [`Reference] (default): the stateless {!Greedy} scan — one flat
      adjacency of the current network per evaluation, one shortest-path
      pass per sold owned edge and per addable target, and every swap
      priced from two of those rows, every gain bitwise
      {!Greedy.move_gain}'s;
    - [`Incremental]: one [Net_state] threaded through the whole run — the
      network and its full distance matrix are maintained across steps, so
      a step costs O(n²) instead of a network build plus a what-if pass per
      candidate.
      After an accepted move the engine drains the state's change report
      and preserves the idle verdict of every agent it can prove
      unaffected (row-local verdict, own row unchanged, no incident
      strategy pair modified, no changed row among its addable targets) —
      provably byte-identical to re-evaluating everyone, and the reason a
      step no longer costs a full rescan.

    Revisits are detected in O(deg) per move: the visited set is keyed
    by a 63-bit hash of the ownership pairs, updated by XORing the
    mover's old strategy out and its new one in, and a hash hit counts
    as a revisit only after [Strategy.equal] confirms it.

    Both evaluators are semantically equivalent (property-tested);
    tie-breaking may differ within float tolerance.  [Best_response] and
    [Random_improving] ignore [Config.evaluator]: they run the stateless
    path of {!deviation}. *)

val deviation : rule -> Host.t -> Strategy.t -> int -> (Strategy.t * float) option
(** One improving deviation for an agent under the rule, with its gain:
    the building block of [run], exposed for tests and tools.  It keeps
    no state between calls: the single-edge rules run {!Greedy.scan}
    ([Greedy_response], [Add_only]) or draw uniformly from the improving
    candidates of {!Greedy.gains} ([Random_improving]). *)

(**/**)

(** The visited-profile set's pair hash, replaceable so that a test can
    force every lookup to collide.  A test seam, not a user option: run
    outcomes never depend on it. *)
module Visited : sig
  val default_pair_hash : int -> int -> int
  val pair_hash : (int -> int -> int) ref
end
