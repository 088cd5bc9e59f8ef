(** Minimum-weight 3/2-spanners of 1-2 host graphs and their Nash
    orientations (Lemma 5, Thm. 5).

    For 1/2 <= α <= 1, a minimum-weight 3/2-spanner of a 1-2 host contains
    all the 1-edges, has diameter at most 3, and admits an edge-ownership
    assignment that is a Nash equilibrium. *)

val is_three_half_spanner : Host.t -> Gncg_graph.Wgraph.t -> bool
(** Specialized 1-2 check: every 1-edge present, and every absent 2-edge's
    endpoints at network distance at most 3. *)

val min_weight_spanner_exact : ?max_two_edges:int -> Host.t -> Gncg_graph.Wgraph.t
(** Minimum-weight 3/2-spanner by enumeration over 2-edge subsets (all
    1-edges are forced by Lemma 5).  Refuses more than [max_two_edges]
    (default 16) candidate 2-edges. *)

val nash_ownership : Host.t -> Gncg_graph.Wgraph.t -> Strategy.t option
(** Search for an ownership assignment of the network's edges that is a
    Nash equilibrium (Thm. 5 guarantees one exists when the network is a
    minimum-weight 3/2-spanner and 1/2 <= α <= 1).  Exponential in the
    number of 2-edges; [None] when no assignment works. *)
