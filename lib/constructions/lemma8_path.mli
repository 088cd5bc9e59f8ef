(** The geometric line construction of Lemma 8 (Fig. 9).

    [n+1] collinear points [v_0 .. v_n]: [w(v_0,v_1) = 1] and
    [w(v_{i-1}, v_i) = (2/α)(1 + 2/α)^(i-2)] for [i >= 2].  The path
    is the social optimum; the spanning star centered at [v_0] (all edges
    owned by the center, leaf [v_i] at weight [(1+2/α)^(i-1)]) is a Nash
    equilibrium, certifying PoA > 1 in [R^1] under every p-norm. *)

val positions : alpha:float -> n:int -> float list
(** Coordinates of [v_0 .. v_n]; requires [n >= 1]. *)

val points : alpha:float -> n:int -> Gncg_metric.Euclidean.points

val host : alpha:float -> n:int -> Gncg.Host.t

val opt_network : alpha:float -> n:int -> Gncg_graph.Wgraph.t
(** The path [P_{n+1}]. *)

val ne_profile : alpha:float -> n:int -> Gncg.Strategy.t
(** The star centered at [v_0], owned by the center. *)

