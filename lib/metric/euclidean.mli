(** Point sets in [R^d] under p-norms (the R^d-GNCG of Sec. 3.3). *)

type norm =
  | L1
  | L2
  | Lp of float  (** p >= 1 *)
  | Linf

type points = float array array
(** [n] rows of dimension [d]. *)

val dist : norm -> float array -> float array -> float
(** p-norm distance between two points of equal dimension. *)

val metric : norm -> points -> Metric.t
(** The induced host space. *)

val of_list : (float list) list -> points

val line : float list -> points
(** 1-dimensional points at the given coordinates. *)

val random_uniform :
  Gncg_util.Prng.t -> n:int -> d:int -> lo:float -> hi:float -> points
(** i.i.d. uniform points in a box. *)

val random_clusters :
  Gncg_util.Prng.t ->
  n:int ->
  d:int ->
  clusters:int ->
  spread:float ->
  box:float ->
  points
(** Gaussian clusters with uniformly placed centers in \[0,box\]^d —
    a stand-in for city/PoP layouts in fiber-network scenarios. *)

