(** Graph generators for workloads and examples. *)

val random_tree : Gncg_util.Prng.t -> n:int -> wmin:float -> wmax:float -> Wgraph.t
(** Random recursive tree with i.i.d. uniform weights. *)

val gnp_connected :
  Gncg_util.Prng.t -> n:int -> p:float -> wmin:float -> wmax:float -> Wgraph.t
(** Erdős–Rényi G(n,p) with uniform weights, plus the edges of a
    random spanning tree that it lacks: always connected. *)
