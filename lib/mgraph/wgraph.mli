(** Undirected weighted sparse graphs on vertices [0 .. n-1].

    This is the substrate on which built networks [G(s)] live: adjacency is
    hash-based so single-edge moves (the add/delete/swap moves of the game)
    are O(1), and neighbour iteration is O(degree) for the stateless
    {!Dijkstra} queries.  The distance store ({!Incr_apsp}) keeps its
    edge set in its own {!Flat_adj} instead and holds no graph.
    Hashtable iteration order is observable (Kruskal tie-breaks and
    optimum edge picks depend on it).

    Parallel edges are not representable: adding an existing edge overwrites
    its weight.  Self-loops are rejected. *)

type t

val create : int -> t
(** [create n] is the empty graph on [n] vertices. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val add_edge : t -> int -> int -> float -> unit
(** [add_edge g u v w] inserts (or overwrites) the undirected edge [(u,v)]
    with weight [w >= 0].  Raises [Invalid_argument] on self-loops,
    out-of-range vertices or negative weights. *)

val remove_edge : t -> int -> int -> unit
(** Removes the edge if present; no-op otherwise. *)

val has_edge : t -> int -> int -> bool

val weight : t -> int -> int -> float option
(** Weight of the edge [(u,v)] if present. *)

val neighbors : t -> int -> (int * float) list
(** Adjacent vertices with edge weights, in unspecified order. *)

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

val degree : t -> int -> int

val edges : t -> (int * int * float) list
(** Every edge once, with [u < v], in unspecified order. *)

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Iterate every edge once with [u < v]. *)

val total_weight : t -> float
(** Sum of all edge weights. *)

val copy : t -> t

val of_edges : int -> (int * int * float) list -> t
(** [of_edges n es] builds a graph from an edge list. *)

val equal : t -> t -> bool
(** Same vertex count and same edge set with equal weights. *)
