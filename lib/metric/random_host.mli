(** Random host generators for the general (not necessarily metric) GNCG
    and for random metric instances. *)

val uniform : Gncg_util.Prng.t -> n:int -> lo:float -> hi:float -> Metric.t
(** Independent uniform weights — generally violates the triangle
    inequality: a general-GNCG workload. *)

val uniform_metric : Gncg_util.Prng.t -> n:int -> lo:float -> hi:float -> Metric.t
(** Metric closure of a uniform host: a random (graph-)metric workload. *)

val random_graph_metric :
  Gncg_util.Prng.t -> n:int -> p:float -> wmin:float -> wmax:float -> Metric.t
(** Metric closure of a connected Erdős–Rényi graph with uniform weights:
    the "graph metric" workloads of the paper's M-GNCG. *)

(** {1 Tree hosts with their implicit description}

    A tree host is defined by O(n)-size structure.  These variants
    expose that structure as a {!Geometry.t}; [tree_geometry] returns it
    alone, without tabulating the O(n²) pairs. *)

val tree_geometry :
  Gncg_util.Prng.t -> n:int -> wmin:float -> wmax:float -> Geometry.t
(** Random recursive tree — O(n), no matrix. *)

val tree_metric :
  Gncg_util.Prng.t -> n:int -> wmin:float -> wmax:float -> Metric.t * Geometry.t
(** Tabulated host {e plus} its description (small n). *)
