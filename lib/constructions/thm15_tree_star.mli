(** The tree-metric lower bound of Theorem 15 (Fig. 6).

    The metric is defined by a star [S*_n]: center [u] (vertex 0), one
    special leaf [v] (vertex 1) at weight 1, and [n-2] leaves at weight
    [2/α].  The tree itself is the social optimum; the spanning star
    centered at [v] — whose edges weigh [1] (to [u]) and [1 + 2/α]
    (to the other leaves), all owned by [v] — is a Nash equilibrium.
    The cost ratio tends to [(α+2)/2] as [n] grows, matching the Thm. 1
    upper bound. *)

val host : alpha:float -> n:int -> Gncg.Host.t

val opt_network : alpha:float -> n:int -> Gncg_graph.Wgraph.t
(** The defining tree [S*_n]. *)

val ne_profile : alpha:float -> n:int -> Gncg.Strategy.t
(** Spanning star centered at vertex 1, all edges owned by the center. *)

val opt_cost_formula : alpha:float -> n:int -> float
(** [(2n + α − 2) · ((n−2)·2/α + 1)] — the closed form in the proof. *)

val ne_cost_formula : alpha:float -> n:int -> float
(** [(2n + α − 2) · ((n−2)(1 + 2/α) + 1)]. *)

val ratio_limit : alpha:float -> float
(** [(α+2)/2]. *)
