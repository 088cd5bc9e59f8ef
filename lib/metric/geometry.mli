(** The implicit structure a host was generated from.

    Tree-metric and R^d hosts are defined by O(n) / O(n·d) descriptions
    (the tree; the point set); {!to_metric} tabulates all O(n²) pairs
    from them. *)

type t =
  | Tree of Tree_metric.tree
  | Points of { points : Euclidean.points; norm : Euclidean.norm }

val tree : Tree_metric.tree -> t

val points : ?norm:Euclidean.norm -> Euclidean.points -> t
(** Defaults to [L2]. *)

val n : t -> int

val to_metric : t -> Metric.t
(** The tabulated host (allocates all O(n²) pairs). *)
