(** Optimized single-move evaluation.

    [Greedy.move_gain] re-builds the network and re-runs Dijkstra for a
    move — simple and obviously correct, the specification.  This module
    evaluates the same move set incrementally:

    - the network is built once as a flat adjacency; each deletion and
      swap is one what-if pass on it ([Flat_adj.sssp_edited_into]), and
    - additions use the exact identity
      [d_{G+(u,v)}(u,x) = min(d_G(u,x), w(u,v) + d_G(v,x))]
      (any shortest path from [u] through the new edge starts with it),
      so each addition costs one pass on the *unmodified* graph.

    Results are identical to [Greedy] up to tie-breaking; the equivalence
    is covered by tests, and the speedup is measured in the bench
    harness. *)

val move_gains : ?kinds:[ `Add | `Delete | `Swap ] list -> Host.t -> Strategy.t -> agent:int -> (Move.t * float) list
(** Gain of every coherent single-edge move for the agent (positive =
    improving), in the order produced by [Move.candidates]. *)

val best_move :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  (Move.t * float) option
(** Drop-in replacement for [Greedy.best_move]. *)

val move_gains_state :
  ?kinds:[ `Add | `Delete | `Swap ] list -> Net_state.t -> agent:int -> (Move.t * float) list
(** [move_gains] against an incrementally maintained {!Net_state.t}: the
    state's distance matrix makes every addition O(n) with no Dijkstra at
    all; deletions and swaps cost one what-if SSSP each.  The state is
    not modified. *)

val best_move_state :
  ?kinds:[ `Add | `Delete | `Swap ] list -> Net_state.t -> agent:int -> (Move.t * float) option
(** Best improving move per {!move_gains_state} — the per-step engine of
    the incremental dynamics evaluator.  Candidate enumeration, gain
    bounds, and what-if Dijkstras all run through the state's
    preallocated scratch buffers and streaming kernels, so evaluating an
    agent allocates O(n) transients instead of one row per candidate. *)

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

val nearest_addable_target : Net_state.t -> agent:int -> (int * float) option
(** The geometrically nearest vertex the agent could buy an edge to,
    with its host distance — answered by the backend's k-d index when
    the state runs on the R^d oracle ([None] on matrix backends, which
    have no geometric index, or when nothing is addable). *)

val best_add_nearest : Net_state.t -> agent:int -> (Move.t * float) option
(** Exact gain of adding the edge to the nearest addable target — one
    O(log n) index query plus one O(n) streaming kernel, against the
    full scan's n kernels.  A greedy shortlist, not a replacement for
    {!best_move_state}: the gain-optimal addition can differ. *)

val round_add_gains : Host.t -> Strategy.t -> (int * int * float) list
(** [(agent, target, gain)] for every improving addition of every agent,
    from a single all-pairs pass — the batch primitive for add-only
    dynamics rounds. *)
