(** Greedy (single-edge) responses: the move set underlying Greedy
    Equilibria and Add-only Equilibria.

    [?graph] is a pre-built network of the current profile
    ([Network.graph host s] when omitted); every call turns it into a
    flat adjacency of its own.  {!scan} takes a {!profile} instead: the
    network in flat form and its row from every vertex, built once per
    profile and never edited, so one profile serves every agent's scan,
    sequential or parallel.  From those rows {!scan} first tries to
    clear the agent by bounds alone.  Otherwise, per agent the exact
    scan runs one shortest-path pass on the network, one what-if per sold
    owned edge (settled from the network's row) and one bounded pass per
    addable target, and assembles
    every moved row, swaps included, as an entrywise minimum of two rows.
    A target's pass settles only the vertices whose value lies below the
    envelope, the entrywise maximum of the rows it is min'ed with; every
    other vertex would leave each of those minima unchanged.  A candidate
    whose row no settled vertex improves takes the row's precomputed
    sum; any other resumes the row's Kahan sum at its first improved
    vertex.  Every gain is bitwise the one {!move_gain} computes by
    rebuilding the moved network (docs/ALGORITHMS.md, "Single-move
    evaluation").  This is the engine's one stateless single-move
    evaluator: the GE/AE checks and [Random_improving] dynamics run on
    it, and it is the specification that greedy and add-only dynamics
    ({!Fast_response} on a {!Net_state}) are tested against. *)

val move_gain :
  ?graph:Gncg_graph.Wgraph.t -> Host.t -> Strategy.t -> agent:int -> Move.t -> float
(** Cost decrease of a move ([> 0] means improving): the cost of the
    moved profile's rebuilt network against the current one, 0 when the
    two are [Flt.approx_eq].  The specification the scans below are
    tested against. *)

val best_single_move_cost :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  ?graph:Gncg_graph.Wgraph.t ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  float
(** The lowest cost the agent can reach with at most one single-edge move
    (her current cost when nothing improves). *)

type profile
(** One profile's network in flat form and its distance row from every
    vertex: the read-only input that {!scan} shares across all agents of
    one profile. *)

val prepare : Host.t -> Strategy.t -> profile
(** [prepare host s] builds the network of [s] once and runs one
    shortest-path pass from every vertex on it, n passes in all.  Each
    row is bitwise the first pass an exact scan would run for that
    agent. *)

val scan :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  ?profile:profile ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  float * (Move.t * float) option
(** [(current, best)]: the agent's current cost ([Cost.agent_cost], to
    the bit) and the single-edge move with the largest strict
    improvement above the game tolerance ([Flt.tol] at the current
    cost), if any; ties keep the earlier candidate in
    [Move.candidates] order.  [kinds] restricts the move set: use
    [[`Add]] for add-only dynamics.  {!best_cost} turns the pair into
    the best single-move cost.

    With [profile] (the {!prepare} of [s]) the scan is bound first: from
    the profile's rows alone it bounds every candidate's moved cost from
    below, and when no bound leaves room for a gain above the game
    tolerance it returns [(current, None)] without a pass or a copy.
    The bounds are an addition's min(d_u, w + d_t), a deletion's neighbour floor and a
    swap's minimum of the two, each summed plainly less a rounding
    margin (docs/ALGORITHMS.md, "Bound-first certification").  Any other
    agent, and every agent whose current cost is +inf, gets the exact
    scan on a private copy of the profile's network, starting from its
    row; so the result is the same bits with or without [profile], and
    one profile serves every agent's scan, sequential or parallel. *)

val best_cost : Host.t -> Strategy.t -> agent:int -> float * (Move.t * float) option -> float
(** [best_cost host s ~agent (current, best)] is the agent's cost after
    [best], the lowest cost one move reaches: [current] when [best] is
    [None], otherwise [current -. gain].  When [current] is +inf and the
    move makes it finite the gain is +inf and that difference NaN; there
    alone it is [Cost.agent_cost] of the moved profile.  Used by
    {!best_single_move_cost} and the greedy [Equilibrium] checks. *)

val gains :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  float * (Move.t * float) list
(** [(current, gains)]: the agent's current cost, as in {!scan}, and the
    gain of every candidate in [Move.candidates] order, each bitwise
    {!move_gain}, which is 0 within the game tolerance.  {!scan}'s
    [best] is the first candidate with the largest positive gain. *)
