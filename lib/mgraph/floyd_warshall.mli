(** All-pairs shortest paths on a dense weight matrix.

    Used as an independent oracle against Dijkstra in tests, and to compute
    metric closures of weighted graphs. *)

val run : float array array -> float array array
(** [run w] returns the shortest-path closure of the (square, symmetric or
    not) weight matrix [w]; [Float.infinity] encodes a missing edge.  The
    diagonal of the result is 0.  The input is not modified. *)

val closure_of_graph : Wgraph.t -> float array array
(** Shortest-path distance matrix of a graph. *)
