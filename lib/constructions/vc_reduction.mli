(** The vertex-cover reduction of Theorem 4 (Fig. 2): deciding whether a
    1-2-GNCG strategy profile is a Nash equilibrium is NP-hard.

    From a Vertex Cover instance (a graph on [nv] vertices with edge list
    [es]) build a 1-2 host with one *vertex node* per VC vertex, two *edge
    nodes* [p_j], [p'_j] per VC edge, and a distinguished agent [u]:
    1-edges join every pair of vertex nodes and each vertex node to the
    edge nodes of its incident edges; everything else (including all of
    [u]'s edges) weighs 2.  With α = 1 and every 1-edge bought, the best
    response of [u] is exactly a minimum vertex cover, so the profile in
    which [u] buys a cover of size [k] is a NE iff no cover of size
    [k−1] exists. *)

type instance = { nv : int; es : (int * int) list }
(** A vertex cover instance; vertices are [0 .. nv-1]. *)

val game_size : instance -> int
(** [1 + nv + 2·|es|]: agent [u], vertex nodes, edge nodes. *)

val u_agent : instance -> int
(** [u] is vertex 0 of the host. *)

val host : instance -> Gncg.Host.t
(** The 1-2 host with α = 1. *)

val profile : instance -> cover:int list -> Gncg.Strategy.t
(** Every 1-edge bought by its smaller endpoint; [u] buys the 2-edges
    towards the vertex nodes of [cover]. *)

val min_vertex_cover : instance -> int list
(** Brute force (for cross-checks; exponential in [nv]). *)

val is_cover : instance -> int list -> bool

val u_cost_formula : instance -> cover_size:int -> float
(** [3·nv + 6·|es| + k'] — agent [u]'s cost when buying a cover of size
    [k'] (proof of Thm. 4). *)
