(** The 1-2 lower-bound construction of Theorem 8 (Fig. 3).

    A clique of [nb_centers] vertices (1-edges), each clique vertex the
    center of a star of [nb_leaves] leaf vertices (1-edges), plus a hub
    vertex [u].  Two host variants:

    - [α = 1]: [u] has 1-edges to *every* vertex (right-hand host of
      Fig. 3); the social optimum is the full 1-edge subgraph; the stable
      network drops the u–leaf edges, pushing the cost ratio to 3/2 − ε.
    - [1/2 <= α < 1]: [u] has 1-edges only to the clique (left-hand host);
      the full 1-edge subgraph is stable and the ratio tends to
      3/(α+2) − ε.

    Vertex layout: [0] is [u]; [1 .. nb_centers] are the clique; leaf [j]
    of center [i] is [nb_centers + (i-1)*nb_leaves + j] (1-based [i],
    1-based [j]). *)

type variant = Alpha_one | Alpha_mid

val center : nb_centers:int -> int -> int
(** [center ~nb_centers i] is the vertex of clique member [i] (1-based). *)

val size : nb_centers:int -> nb_leaves:int -> int

val host : variant -> alpha:float -> nb_centers:int -> nb_leaves:int -> Gncg.Host.t

val ne_profile : variant -> nb_centers:int -> nb_leaves:int -> Gncg.Strategy.t
(** The stable profile of the theorem: all 1-edges except those between
    the hub and leaves; clique edges owned by the smaller endpoint, star
    edges by their center, hub edges by the hub. *)

val opt_network : variant -> nb_centers:int -> nb_leaves:int -> Gncg_graph.Wgraph.t
(** The 1-edge subgraph — the social optimum for [Alpha_one]; for
    [Alpha_mid] the paper only upper-bounds OPT by the complete host, so
    this network is a (not necessarily optimal) reference. *)

val expected_ratio_limit : variant -> alpha:float -> float
(** 3/2 for [Alpha_one]; 3/(α+2) for [Alpha_mid]. *)
