(** The stateful single-move evaluator: the engine of greedy and
    add-only dynamics ({!Dynamics.run}) and of {!Equilibrium.Tracker}.

    It evaluates {!Greedy}'s move set against a {!Net_state.t}, whose
    maintained distance matrix replaces the per-call network build and
    shortest-path passes of the stateless scan:

    - additions use the exact identity
      [d_{G+(u,v)}(u,x) = min(d_G(u,x), w(u,v) + d_G(v,x))]
      (any shortest path from [u] through the new edge starts with it),
      one O(n) streaming kernel over two live rows and no Dijkstra;
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

val tight_margin : int -> float -> float -> float
(** [tight_margin n cur_dist w] is the margin Δ that bounds a tight
    target's insertion sum around the agent's distance sum [cur_dist]:
    [Flt.stored_margin n (2n·w + cur_dist)], bit for bit.  An inlined
    copy of the [Flt] margin, so that pricing a target boxes no float
    (docs/ALGORITHMS.md, "Tight targets"). *)

val best_move_state_verdict :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  Net_state.t ->
  agent:int ->
  (Move.t * float) option * bool
(** The best improving move of the agent against the state (positive
    gain), plus a row-locality flag.  The state is not modified.

    The insertion sums of the loose addable targets (stored
    [d(u,v) > w(u,v)]) come from one batched
    {!Net_state.dist_sums_with_edges} call over their positions.  A
    tight target ([d(u,v) <= w(u,v)]) gets no sum up front: its sum lies
    within a rounding margin of the agent's current distance sum, and
    each decision that reads it (the add pick, the co-owned swap pick and
    the swap pre-filter) computes the exact sum, once, only when that
    bound cannot settle it.  Every branch is therefore taken as with
    every sum computed.  Each owned edge costs at most one deletion
    what-if row, which the delete candidate sums and every swap from
    that edge reuses for its pruning bound.  Targets, sums and rows live
    in the state's {!Net_state.scratch}, so evaluating an agent
    allocates no array.

    The flag is [true] when the verdict was decided with zero what-if
    Dijkstras, i.e. purely from the live distance rows of the agent and
    its eligible targets together with the agent's own strategy entry
    and co-ownership pairs.  Row-local verdicts stay valid while those
    inputs are untouched — the exactness basis of the idle-verdict
    preservation in {!Dynamics.run}. *)
