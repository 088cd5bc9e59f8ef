(** Implicit distance oracle for tree metrics — no matrix.

    When the built network {e is} the host tree (the canonical large-n
    regime of the paper's §4 tree-metric results), pairwise distances
    follow from an Euler tour + sparse-table LCA in O(1) per query and
    O(n log n) ints of storage, against the dense backend's O(n²)
    floats.  Distance sums are O(1) via a build-time reroot DP; what-if
    edits run the {!Flat_adj} SSSP kernel over the (sparse) edited tree.

    The structure is read-only: there are no [add_edge] / [remove_edge]
    updates — response engines evaluate hypothetical moves through the
    [sssp_edited_*] probes, and mutating dynamics fall back to a dense
    backend (see {!Distances}). *)

type t

val of_tree : Wgraph.t -> t
(** Adopts a private copy of the tree.  Raises [Invalid_argument] when
    the graph is not a connected tree ([m = n-1], all reachable). *)

val of_tree_no_copy : Wgraph.t -> t
(** Wraps the tree itself; the caller must never mutate it. *)

val graph : t -> Wgraph.t
(** The underlying tree (read-only). *)

val n : t -> int

val distance : t -> int -> int -> float
(** O(1): [rootdist u + rootdist v - 2 rootdist (lca u v)]. *)

val lca : t -> int -> int -> int

val row : t -> int -> float array

val row_into : t -> int -> float array -> unit
(** O(n) with O(1) work per entry. *)

val dist_sum : t -> int -> float
(** O(1) — precomputed [Σ_v d(u,v)] for every vertex. *)

val dist_sum_with_edge : t -> int -> int -> float -> float
(** [Σ_x min(d(u,x), w + d(v,x))] — the addition what-if kernel,
    streamed through the oracle in O(n). *)

val min_sum_against : t -> float array -> int -> float -> float
(** [Σ_x min(r.(x), w + d(v,x))] against a caller-held row. *)

val sssp_edited_into :
  t -> ?remove:int * int -> ?add:int * int * float -> int -> float array -> unit
(** Single-source distances on a hypothetical edit of the tree (edge
    removed and/or added, edits restored before returning) — O(n log n)
    since the tree has n-1 edges. *)

val sssp_edited_sum : t -> ?remove:int * int -> ?add:int * int * float -> int -> float

(** {1 Drift sentinel} *)

val set_selfcheck : t -> int -> unit

val selfcheck_cadence : t -> int

val selfcheck_now : t -> bool
(** A fresh SSSP pass over the tree vs the LCA oracle for one round-robin
    source (plus a sum cross-check); on mismatch bumps the
    [tree_dist.selfcheck_*] counters, rebuilds the tour/DP arrays from
    the tree, and returns [false]. *)

val inject_cell_error : t -> int -> int -> float -> unit
(** Perturbs [rootdist u] (the oracle has no per-cell storage) — fault
    injection for sentinel tests; the second vertex is ignored. *)

val memory_bytes : t -> int
(** Estimated resident bytes of the oracle's arrays. *)
