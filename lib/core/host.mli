(** A game instance: a host space together with the edge-price parameter α.

    The price of building edge [(u,v)] is [alpha * w(u,v)]; using it costs
    its weight.  α trades off building cost against distance cost. *)

type t

val check_alpha : float -> (float, string) result
(** [Ok alpha] when it is a valid edge-price factor: positive and finite.
    The one rule behind {!make} and the CLI and serve boundaries. *)

val check_n : int -> (int, string) result
(** [Ok n] when it is a valid instance size: at least one agent. *)

val make : ?geometry:Gncg_metric.Geometry.t -> alpha:float -> Gncg_metric.Metric.t -> t
(** Requires {!check_alpha}.  A [?geometry] (the tree or point set the
    metric was tabulated from) is only checked to have the metric's size
    and is not kept. *)

val metric : t -> Gncg_metric.Metric.t

val alpha : t -> float

val n : t -> int

val weight : t -> int -> int -> float
(** Host weight of the pair. *)

val weight_row : t -> int -> float array
(** The host weights of [u]'s pairs, [(weight_row t u).(v) = weight t u v]:
    a read-only view of the metric row (no copy), so a loop over targets
    reads each weight unboxed instead of calling {!weight}. *)

val validate :
  ?tol:float ->
  ?require_metric:bool ->
  t ->
  (unit, Gncg_util.Gncg_error.t) result
(** α finite and positive, then {!Gncg_metric.Metric.validate} on the
    host space with the same options: the typed first-failure check of
    every loaded host. *)
