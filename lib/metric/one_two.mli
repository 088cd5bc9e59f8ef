(** 1-2 host graphs: every edge weight is 1 or 2 (Sec. 3.1).

    Any {1,2}-weighted complete graph automatically satisfies the triangle
    inequality (1 + 1 >= 2), so this is the simplest metric generalization
    of the unit-weight NCG. *)

val of_one_edges : int -> (int * int) list -> Metric.t
(** [of_one_edges n ones] gives weight 1 to the listed pairs and 2 to every
    other pair. *)

val random : Gncg_util.Prng.t -> n:int -> p_one:float -> Metric.t
(** Each pair is a 1-edge independently with probability [p_one]. *)

val is_one_two : Metric.t -> bool
(** Every off-diagonal weight is exactly 1 or 2. *)

val one_subgraph : Metric.t -> Gncg_graph.Wgraph.t
(** The graph induced by the 1-edges (weights 1). *)

val has_one_one_two_triangle : Metric.t -> Gncg_graph.Wgraph.t -> bool
(** Whether the given network contains a triangle of two 1-edges and one
    2-edge — the redundant pattern Algorithm 1 (Thm. 6) eliminates. *)
