(** Breadth-first search: hop distances and reachability, ignoring weights. *)

val hops : Wgraph.t -> int -> int array
(** [hops g s] is the hop distance from [s] to every vertex, [-1] when
    unreachable. *)

val component : Wgraph.t -> int -> int list
(** Vertices of the connected component of [s], in BFS order. *)
