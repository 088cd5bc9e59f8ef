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
      scratch buffers, and {!best_move_state_verdict} prunes most of
      them with admissible gain bounds.

    Gains agree with {!Greedy.move_gain} within float tolerance and
    picks agree up to tie-breaking (property-tested). *)

val move_gains_state :
  ?kinds:[ `Add | `Delete | `Swap ] list -> Net_state.t -> agent:int -> (Move.t * float) list
(** Gain of every coherent single-edge move for the agent (positive =
    improving), in the order produced by [Move.candidates], against the
    state: every addition O(n) with no Dijkstra at all; deletions and
    swaps cost one what-if SSSP each.  The state is not modified. *)

val best_move_state :
  ?kinds:[ `Add | `Delete | `Swap ] list -> Net_state.t -> agent:int -> (Move.t * float) option
(** Best improving move per {!move_gains_state} — the per-step engine of
    greedy and add-only dynamics.  The insertion sums of all
    addable targets come from one batched
    {!Net_state.dist_sums_with_edges} call; each owned edge costs at most
    one deletion what-if row, which the delete candidate sums and every
    swap from that edge reuses for its pruning bound.  Targets, sums and
    rows live in the state's {!Net_state.scratch}, so evaluating an
    agent allocates no array. *)

val best_move_state_verdict :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  Net_state.t ->
  agent:int ->
  (Move.t * float) option * bool
(** {!best_move_state} plus a row-locality flag: [true] when the verdict
    was decided with zero what-if Dijkstras, i.e. purely from the live
    distance rows of the agent and its eligible targets together with
    the agent's own strategy entry and co-ownership pairs.  Row-local
    verdicts stay valid while those inputs are untouched — the exactness
    basis of the dirty-agent skipping in {!Dynamics} and
    {!Equilibrium}. *)
