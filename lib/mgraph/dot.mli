(** Graphviz DOT export, used by the examples to visualize networks. *)

val to_file : string -> Wgraph.t -> unit
(** [to_file path g] writes [g] as an undirected DOT graph named [G],
    each vertex labelled by its index and each edge by its weight. *)
