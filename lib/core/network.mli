(** The built network [G(s)]: the subgraph of the host containing exactly
    the bought edges, weighted by the host weights. *)

val graph : Host.t -> Strategy.t -> Gncg_graph.Wgraph.t
(** Build [G(s)].  Edges of infinite host weight are not materialized (they
    can never be part of a finite-cost network; in the 1-∞ variant buying
    one is simply a wasted purchase, which the cost module still charges). *)

val validate : Host.t -> Strategy.t -> (unit, Gncg_util.Gncg_error.t) result
(** Strategy/ownership consistency against the host: matching sizes,
    in-range non-self purchases agreeing with the ownership view, no
    NaN-weight purchases.  A disconnected network passes: it is a legal,
    infinitely costly state. *)

val diameter : Host.t -> Strategy.t -> float
