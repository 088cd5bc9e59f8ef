(** The geometric best-response hardness reduction of Theorem 16
    (Fig. 7): computing a best response in the R^d-GNCG solves Minimum
    Set Cover under any p-norm.

    Agent [u] sits at the origin; subset nodes [a_i] lie on a radius-[L]
    arc of length [ε]; element nodes [p_j] on a radius-[2L] arc of length
    [ε]; blocker nodes [b_i] on the ray *opposite* to [a_i] at radius
    [(L−β)/2] (so that [d(b_i, a_i) = (L−β)/2 + L]).  The built network
    joins [b_i] to [u] and [a_i], and [a_i] to its elements; [u] owns
    nothing and her best response buys the subset nodes of a minimum set
    cover (α = 1). *)

type params = { big_l : float; eps : float; beta : float }

val default_params : params
(** L = 100, ε = 0.001, β = 1. *)

val u_agent : int

val subset_node : Set_cover.t -> int -> int

val blocker_node : Set_cover.t -> int -> int

val host : ?params:params -> ?norm:Gncg_metric.Euclidean.norm -> Set_cover.t -> Gncg.Host.t
(** Default norm: L2. *)

val profile : Set_cover.t -> Gncg.Strategy.t
(** Strategies of everyone but [u]: [b_i] buys towards [u] and [a_i];
    [a_i] buys towards its elements. *)

val cover_of_strategy : Set_cover.t -> Gncg.Strategy.ISet.t -> int list option
