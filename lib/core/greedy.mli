(** Greedy (single-edge) responses: the move set underlying Greedy
    Equilibria and Add-only Equilibria.

    [?graph] is a pre-built network of the current profile
    ([Network.graph host s] when omitted); every call turns it into a
    flat adjacency of its own.  {!scan} takes that flat adjacency
    pre-built instead, as [?adj], and never edits it: it works on a
    private copy, so one network per profile can serve every agent's
    scan, sequential or parallel.  Per agent the
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
    moved profile's rebuilt network against the current one.  The
    specification the scans below are tested against. *)

val best_move :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  ?graph:Gncg_graph.Wgraph.t ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  (Move.t * float) option
(** The single-edge move with the largest strict improvement for the agent,
    if any (tolerance-guarded).  [kinds] restricts the move set: use
    [[`Add]] for add-only dynamics. *)

val best_single_move_cost :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  ?graph:Gncg_graph.Wgraph.t ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  float
(** The lowest cost the agent can reach with at most one single-edge move
    (her current cost when nothing improves). *)

val scan :
  ?kinds:[ `Add | `Delete | `Swap ] list ->
  ?adj:Gncg_graph.Flat_adj.t ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  float * (Move.t * float) option
(** [(current, best)]: the agent's current cost ([Cost.agent_cost], to
    the bit) and {!best_move}'s result, from one scan.  {!best_cost}
    turns it into the best single-move cost. *)

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
    {!move_gain}.  {!scan}'s [best] is the first candidate with the
    largest gain above [Flt.eps]. *)
