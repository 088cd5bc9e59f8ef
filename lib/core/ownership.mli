(** Edge-ownership assignments.

    A network fixes the edge set of [G(s)] but not who pays: several
    existence results (Thm. 5, Thm. 8, Cor. 3) are statements about *some*
    ownership assignment being stable.  This module enumerates
    orientations and searches for stable ones. *)

val orientations : Gncg_graph.Wgraph.t -> Strategy.t Seq.t
(** All 2^m ways to assign each edge to one endpoint. *)

val find_ne : ?max_edges:int -> Host.t -> Gncg_graph.Wgraph.t -> Strategy.t option
(** First orientation that is a Nash equilibrium (exact check; exponential
    in both the edge count and the Nash test).  Refuses networks with more
    than [max_edges] (default 20) edges. *)
