(** The 1-∞-GNCG of Demaine et al.: edge weights in {1, ∞}.

    Weight ∞ encodes a forbidden edge, so the host is effectively an
    arbitrary unweighted graph.  This variant is inherently non-metric. *)

val of_allowed_edges : int -> (int * int) list -> Metric.t
(** Weight 1 on the listed pairs, ∞ elsewhere. *)

val random_connected :
  Gncg_util.Prng.t -> n:int -> p:float -> Metric.t
(** Erdős–Rényi allowed-edge set, augmented with a random spanning tree so
    that a connected network is always reachable. *)

val is_one_inf : Metric.t -> bool
