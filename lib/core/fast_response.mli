(** The stateful single-move evaluator: the engine of greedy and
    add-only dynamics ({!Dynamics.run}) and of {!Equilibrium.Tracker}.

    It evaluates {!Greedy}'s move set against a {!Net_state.t}, whose
    maintained distance matrix replaces the per-call network build and
    shortest-path passes of the stateless scan:

    - additions use the exact identity
      [d_{G+(u,v)}(u,x) = min(d_G(u,x), w(u,v) + d_G(v,x))]
      (any shortest path from [u] through the new edge starts with it):
      at most one O(n) scan over two live rows and no Dijkstra;
    - deletions and swaps cost one what-if pass each on the state's
      scratch buffers, and admissible gain bounds prune most of them.

    Gains agree with {!Greedy.move_gain} within float tolerance and
    picks agree up to tie-breaking (property-tested). *)

val addable_into : Net_state.t -> agent:int -> int array -> float array -> int
(** [addable_into st ~agent targets weights] writes every
    {!Move.addable} target of the state's profile in ascending order to
    [targets] and its host weight to [weights] (each of length >= n),
    and returns their count: the target loop of the evaluator.  The
    agent's network neighbours come from the state's adjacency and the
    weights from {!Host.weight_row}, so no set is searched and no float
    is boxed per target. *)

val stored_margin : int -> float -> float
(** [stored_margin n mag] is [Flt.stored_margin n mag], bit for bit: an
    inlined copy, so that pricing a target or a swap boxes no float.  It
    bounds a tight target's insertion sum (at [2n·w + cur_dist]) and the
    neighbour floor under a deletion row (at the floor's sum). *)

val sum_margin : int -> float -> float
(** [sum_margin n mag] is [Flt.sum_margin n mag], bit for bit, inlined
    like {!stored_margin}.  It bounds a savings centre: a loose target's
    insertion sum (at [cur_dist]) and a swap's refined bound (at the
    deletion row's sum). *)

val best_move_state_verdict :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  Net_state.t ->
  agent:int ->
  (Move.t * float) option * bool
(** The best improving move of the agent against the state (positive
    gain), plus a row-locality flag.  The state is not modified: its
    {!Net_state.store} is only read and asked what-ifs.

    Every quantity is priced bound first (docs/ALGORITHMS.md,
    "Bound-first evaluation"): a decision is taken from a centre and a
    rounding margin when the whole band lies on one side of it, and the
    exact quantity is computed only inside the band, so every pick and
    gain bit is the one the exact quantities give.
    - An insertion sum [Σ_x min(d_u(x), w + d_v(x))] is centred at the
      agent's distance sum: unchanged for a tight target
      ([d(u,v) <= w], no scan), minus the plain sum of what the edge
      saves ({!Gncg_graph.Incr_apsp.savings_into}) for a loose one.
      The exact Kahan {!Gncg_graph.Incr_apsp.dist_sum_with_edge} runs
      once per target at most, and for every target up front when the
      agent's cost is infinite.
    - A deletion or a swap that sells an edge [(u,o)] first meets the
      neighbour floor: no distance from [u] after the sale lies below
      the best offer [w(u,z) + d(z,x)] of [u]'s other neighbours
      ({!Gncg_graph.Incr_apsp.neighbour_bounds}).  A move the floor
      rules out spends no what-if.
    - Otherwise the owned edge gets its deletion what-if row, at most
      once per evaluation; the delete candidate sums it, and a swap's
      refined bound is centred at its sum minus the savings against it
      ({!Gncg_graph.Incr_apsp.savings_against}), with the exact
      {!Gncg_graph.Incr_apsp.min_sum_against} only inside the band.  A
      swap that passes every bound costs one what-if.
    Targets, sums, rows and floors live in the state's
    {!Net_state.scratch}, so evaluating an agent allocates no array.

    The flag is [true] when the verdict was decided with zero what-if
    Dijkstras, i.e. purely from the live distance rows of the agent and
    its eligible targets together with the agent's own strategy entry
    and co-ownership pairs.  A verdict that reads the neighbour floor is
    never row-local: the floor is read only where a what-if would run
    without it.  Row-local verdicts stay valid while those inputs are
    untouched — the exactness basis of the idle-verdict preservation in
    {!Dynamics.run}. *)
