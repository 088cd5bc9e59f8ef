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

val agent_dist_sum : t -> int -> float
(** Streaming sum of the agent's distance row — no row materialized. *)

val dist_sum_with_edge : t -> int -> int -> float -> float
(** [Σ_x min(d(u,x), w + d(v,x))] — see
    {!Gncg_graph.Incr_apsp.dist_sum_with_edge}. *)

val loose_targets : t -> int -> int array -> float array -> int -> int array -> int
(** The targets a new edge from [u] can shorten a distance through; see
    {!Gncg_graph.Incr_apsp.loose_targets}. *)

val savings_into : t -> int -> int array -> float array -> int array -> int -> float array -> unit
(** What the edges from [u] to the listed targets save on [u]'s row,
    written to their positions; see
    {!Gncg_graph.Incr_apsp.savings_into}. *)

val savings_against : t -> float array -> int -> float -> float
(** See {!Gncg_graph.Incr_apsp.savings_against}. *)

val min_sum_against : t -> float array -> int -> float -> float
(** See {!Gncg_graph.Incr_apsp.min_sum_against}. *)

val neighbour_bounds : t -> int -> float array -> int array -> float array -> unit
(** The least and second-least offers of [u]'s network neighbours to
    every vertex; see {!Gncg_graph.Incr_apsp.neighbour_bounds}. *)

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
      [near_second], from {!neighbour_bounds}) and, per owned edge, the
      lower bound they give on its deletion row: [floor_for.(i)] is the
      target whose bound [floor_rows.(i)] holds, or [-1], and
      [floor_sums.(i)] its plain sum;
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

val mark_neighbours : t -> int -> bool array -> bool -> unit
(** [mark_neighbours t u marks b] sets [marks.(v)] to [b] for every
    neighbour [v] of [u] in the network G(s): exactly the [v] with
    {!Strategy.edge_in_network} and a finite host weight. *)

val agent_cost : t -> int -> float
(** [Cost.agent_edge_cost] plus {!agent_dist_sum}: one O(n) pass over
    the agent's live distance row. *)

val apply_move : t -> agent:int -> Move.t -> Strategy.t
(** Applies the move to the profile ({!Move.apply} semantics, including
    its validation) and updates the network and distances incrementally.
    An edge bought from both sides stays in the network when only one
    side sells it.  Returns the new profile. *)

val drain_changes : t -> changes
(** Returns everything accumulated since the previous drain and resets
    the accumulator.  A fresh state drains empty. *)

val sssp_edited_into :
  t -> ?remove:int * int -> ?add:int * int * float -> int -> float array -> unit
(** What-if single-source distances on a hypothetical one-edge edit,
    written into a caller buffer; see
    {!Gncg_graph.Incr_apsp.sssp_edited_into}. *)

val sssp_edited_sum : t -> ?remove:int * int -> ?add:int * int * float -> int -> float
(** [Flt.sum] of the what-if row through the engine's scratch buffer —
    zero allocation; the form the response engines use. *)

(** {1 Drift sentinel}

    Passthrough to {!Gncg_graph.Incr_apsp}'s configurable-cadence
    cross-check: every [N] applied network mutations the engine verifies
    the maintained matrix (symmetry sweep + one fresh-Dijkstra row) and
    self-heals by rebuilding on a mismatch, reporting every row changed
    so the idle verdicts above are dropped. *)

val set_selfcheck : t -> int -> unit
(** Probe every [n] network mutations; [0] disables (the default). *)

val selfcheck_now : t -> bool
(** One immediate probe; on repair also marks the pending change report
    [full].  [true] = clean. *)

val inject_distance_error : t -> int -> int -> float -> unit
(** Perturbs one maintained distance cell without touching the graph —
    fault-injection hook for sentinel tests and chaos runs. *)

val check_consistent : t -> bool
(** Compares the maintained matrix against a from-scratch APSP of a
    freshly built network under {!Gncg_util.Flt.stored_eq}: the same
    finiteness, and within the rounding model's margin, at any weight
    scale — test oracle. *)
