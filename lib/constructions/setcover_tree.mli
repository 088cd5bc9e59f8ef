(** The tree-metric best-response hardness reduction of Theorem 13
    (Fig. 4): computing a best response in the T-GNCG solves Minimum Set
    Cover.

    From a set cover instance with [m] subsets and [k] elements, build the
    weighted tree (α = 1): hub [c] at distance [L−ε] from agent [u];
    subset nodes [a_i] at distance [ε] from [c]; blocker nodes [b_i] at
    distance [(L−β)/2] from [u]; element nodes [p_j] at distance [L] from
    one subset node containing them.  The strategy profile connects [c]
    and each [b_i] to [u], each [b_i] to [a_i], and each [a_i] to its
    elements; agent [u] owns nothing, and her best response buys exactly
    the subset nodes of a minimum set cover. *)

type params = { big_l : float; eps : float; beta : float }

val u_agent : int
(** 0. *)

val host : ?params:params -> Set_cover.t -> Gncg.Host.t
(** Metric closure of the tree, α = 1. *)

val profile : ?params:params -> Set_cover.t -> Gncg.Strategy.t
(** The fixed strategies of everyone but [u]. *)

val cover_of_strategy : Set_cover.t -> Gncg.Strategy.ISet.t -> int list option
(** Decode a strategy of [u] into subset indices; [None] when it buys
    anything but subset nodes. *)
