(** Shortest paths on weighted graphs (non-negative weights).

    Distances use [Float.infinity] for unreachable vertices, matching the
    paper's convention that a disconnected agent has infinite distance
    cost. *)

val sssp : Wgraph.t -> int -> float array
(** [sssp g s] is the array of shortest-path distances from [s].  The
    distance stores run their repeated passes through {!Flat_adj}'s
    allocation-free kernel instead, which yields the same rows. *)

val sssp_bounded : Wgraph.t -> int -> float -> float array
(** [sssp_bounded g s limit] stops settling vertices once the frontier
    exceeds [limit]; distances beyond it are reported as infinity.  Used by
    the greedy spanner where only "is d(u,v) <= t*w" matters. *)

val apsp : Wgraph.t -> float array array
(** All-pairs shortest paths by repeated Dijkstra: O(n (m + n log n)). *)

val diameter : Wgraph.t -> float
(** The largest eccentricity: infinite when the graph is disconnected,
    0 for n <= 1.  One SSSP per source, in the calling domain: it runs
    inside sweep jobs that the scheduler already spreads across domains,
    so it must not spawn any of its own. *)
