(** Summary statistics of a built network, for reports and examples. *)

type t = {
  n : int;
  m : int;
  total_weight : float;
  diameter : float;
  avg_degree : float;
  max_degree : int;
  components : int;
  is_tree : bool;
  social_cost : float;
  stretch : float;  (** spanner stretch w.r.t. the host *)
}

val of_network : Host.t -> Gncg_graph.Wgraph.t -> t

val of_profile : Host.t -> Strategy.t -> t
(** Statistics of [G(s)]; [social_cost] accounts for double purchases. *)

val row : t -> string list
(** Cells for a [Tablefmt] row, matching {!header}. *)

val header : string list
