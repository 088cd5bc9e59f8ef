(** The d-dimensional ℓ1 cross of Theorem 19 (Fig. 10).

    [2d+1] points: the origin [v_0], the unit point [v_1 = e_1], and the
    [2d−1] points [±(2/α)·e_j] (all of [−(2/α)e_1 .. ±(2/α)e_d]).  Under
    the 1-norm this is an isometric embedding of the Thm. 15 star, so the
    star centered at [v_1] (owned by [v_1]) is a Nash equilibrium while
    the star centered at [v_0] is optimal, giving

    PoA >= 1 + α / (2 + α/(2d−1)).  *)

val host : alpha:float -> d:int -> Gncg.Host.t

val opt_network : alpha:float -> d:int -> Gncg_graph.Wgraph.t
(** The star centered at [v_0]. *)

val ne_profile : alpha:float -> d:int -> Gncg.Strategy.t
(** The star centered at [v_1]. *)

val ratio_formula : alpha:float -> d:int -> float
