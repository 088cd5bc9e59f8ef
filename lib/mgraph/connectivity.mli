(** Connectivity queries. *)

val is_connected : Wgraph.t -> bool

val component_count : Wgraph.t -> int

val is_tree : Wgraph.t -> bool
(** Connected with exactly n-1 edges. *)

