(** Mutable game state with incrementally maintained distances.

    Response dynamics mutate the network one edge at a time; rebuilding
    [Network.graph] and re-running Dijkstra after every step is the
    engine's historic bottleneck.  A [Net_state.t] is the game state and
    nothing more: the current strategy profile, a
    {!Gncg_graph.Incr_apsp.t} tracking its network, the change report
    and the move evaluator's workspace.  So

    - applying a move costs O(n²) (insertion) or one Dijkstra pass per
      affected source (deletion) instead of a full rebuild + APSP,
    - an agent's cost is its edge price plus one O(n) pass over its
      distance row, and
    - every mutation accumulates a change report (changed distance rows
      plus modified strategy pairs) that {!Dynamics.run} drains to keep
      the idle verdicts of provably unaffected agents.

    The structure is single-owner and not thread-safe; the read-only
    accessors may be shared across domains between updates. *)

type t

(** What changed since the previous {!drain_changes}:
    - [rows] — source rows of the distance matrix whose entries changed
      (sound: possibly over-approximate, never missing a changed row);
    - [pairs] — strategy pairs [(agent, target)] whose ownership entry
      was modified by {!apply_move}, {e including} moves that left the
      network itself untouched (co-owned buys/sells change purchase
      costs and edge-survival behaviour at both endpoints);
    - [full] — a repairing {!selfcheck_now} rebuilt the matrix; consumers
      must treat every agent as dirty. *)
type changes = {
  rows : Gncg_graph.Changed_rows.t;
  pairs : (int * int) list;
  full : bool;
}

val create : ?require_mutable:bool -> Host.t -> Strategy.t -> t
(** Builds the network of the profile and its distance matrix:
    O(n · (m + n log n)) once, amortized over the run.
    [?require_mutable] has no effect; the store is always mutable.  It
    is kept only because the benchmark harness ([benchmark/]) passes it. *)

val host : t -> Host.t

val profile : t -> Strategy.t
(** The current profile; updated by {!apply_move}. *)

val store : t -> Gncg_graph.Incr_apsp.t
(** The distance store tracking the network G(s) of {!profile}, for
    reads and what-ifs only: distances, row sums, the insertion and
    savings kernels, neighbour bounds and [sssp_edited_into] /
    [sssp_edited_sum].  {!apply_move} is the one writer and
    {!selfcheck_now} the one repair, because each must also record what
    it changed in the change report: a caller that edits the store
    directly leaves that report stale. *)

(** The workspace of the stateful move evaluator ({!Fast_response}),
    kept here so that evaluating an agent allocates no per-call arrays:
    - the agent's addable targets with their weights, and for each an
      insertion sum or its bound: [sums.(i)] is the exact sum when
      [known.(i)], else a centre within [margins.(i)] of it
      ([margins.(i) = 0] once the sum is exact), and [loose] lists the
      positions of the loose targets (the savings kernel's input);
    - one deletion what-if row per owned edge: [del_for.(i)] is the
      target whose row [del_rows.(i)] holds, or [-1], and [del_sums.(i)]
      its [Flt.sum];
    - the agent's neighbour offers ([near_best], [near_arg],
      [near_second], from {!Gncg_graph.Incr_apsp.neighbour_bounds}) and,
      per owned edge, the lower bound they give on its deletion row:
      [floor_for.(i)] is the target whose bound [floor_rows.(i)] holds,
      or [-1], and [floor_sums.(i)] its plain sum;
    - flags for the agent's network neighbours ([adjacent], all [false]
      between evaluations).
    The evaluator grows it on demand; apart from [adjacent], its
    contents mean nothing between evaluations. *)
type scratch = {
  mutable targets : int array;
  mutable weights : float array;
  mutable sums : float array;
  mutable margins : float array;
  mutable known : bool array;
  mutable loose : int array;
  mutable del_rows : float array array;
  mutable del_for : int array;
  mutable del_sums : float array;
  mutable near_best : float array;
  mutable near_arg : int array;
  mutable near_second : float array;
  mutable floor_rows : float array array;
  mutable floor_for : int array;
  mutable floor_sums : float array;
  mutable adjacent : bool array;
}

val scratch : t -> scratch

val agent_cost : t -> int -> float
(** [Cost.agent_edge_cost] plus {!Gncg_graph.Incr_apsp.dist_sum}: one
    O(n) pass over the agent's live distance row. *)

val apply_move : t -> agent:int -> Move.t -> Strategy.t
(** Applies the move to the profile ({!Move.apply} semantics, including
    its validation) and updates the network and distances incrementally.
    An edge bought from both sides stays in the network when only one
    side sells it.  Returns the new profile. *)

val drain_changes : t -> changes
(** Returns everything accumulated since the previous drain and resets
    the accumulator.  A fresh state drains empty. *)

(** {1 Drift sentinel}

    {!Gncg_graph.Incr_apsp}'s configurable-cadence cross-check runs on
    {!store}: every [N] applied network mutations
    ([Incr_apsp.set_selfcheck (store t) N]) the engine verifies the
    maintained matrix (symmetry sweep + one fresh-Dijkstra row) and
    self-heals by rebuilding on a mismatch; {!apply_move} then reports
    every row changed, so the idle verdicts above are dropped.  Tests
    corrupt a cell with [Incr_apsp.inject_cell_error (store t)]. *)

val selfcheck_now : t -> bool
(** One immediate probe; on repair also marks the pending change report
    [full].  [true] = clean. *)

val check_consistent : t -> bool
(** Compares the maintained matrix against a from-scratch APSP of a
    freshly built network under {!Gncg_util.Flt.stored_eq}: the same
    finiteness, and within the rounding model's margin, at any weight
    scale — test oracle. *)
