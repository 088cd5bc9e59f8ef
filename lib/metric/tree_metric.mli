(** Tree metrics: hosts defined as the metric closure of an edge-weighted
    tree (the T-GNCG of Sec. 3.2). *)

type tree
(** A connected acyclic weighted graph on [0 .. n-1]. *)

val make : int -> (int * int * float) list -> tree
(** [make n edges] validates that the edges form a spanning tree of
    [0..n-1] with positive weights. *)

val size : tree -> int

val graph : tree -> Gncg_graph.Wgraph.t
(** The tree as a sparse graph. *)

val metric : tree -> Metric.t
(** The host: [w(u,v) = d_T(u,v)]. *)

val star : int -> (int -> float) -> tree
(** [star n leaf_weight] is a star with center 0 and leaves [1..n-1], the
    edge to leaf [i] weighing [leaf_weight i]. *)

val random : Gncg_util.Prng.t -> n:int -> wmin:float -> wmax:float -> tree
(** Random recursive tree (each vertex attaches to a uniform predecessor)
    with i.i.d. uniform weights. *)

val is_tree_metric : ?tol:float -> Metric.t -> bool
(** Whether a host satisfies the four-point condition
    [w(u,v) + w(x,y) <= max(w(u,x)+w(v,y), w(u,y)+w(v,x))] for all
    quadruples — the classical characterization of tree metrics. *)
