(** Finite weighted host spaces.

    A host graph in the paper is a complete undirected graph on [n] nodes
    with non-negative edge weights.  This module represents such hosts as
    dense symmetric matrices and provides the predicates distinguishing the
    model variants of Fig. 1: general weights (GNCG), metric weights
    (M-GNCG), 1-2 weights, tree metrics, p-norm point sets, and the
    non-metric 1-∞ variant. *)

type t
(** A host space: [n] nodes and a symmetric non-negative weight for every
    pair.  Weights may be [infinity] (the 1-∞-GNCG uses it for forbidden
    edges). *)

val make : int -> (int -> int -> float) -> t
(** [make n w] tabulates the weight function.  [w] is only consulted for
    [u < v]; the result is symmetric by construction.  Raises
    [Invalid_argument] on negative or NaN weights. *)

val of_matrix : float array array -> t
(** Validates squareness and symmetry; the diagonal is forced to 0. *)

val n : t -> int

val weight : t -> int -> int -> float
(** [weight h u v]; 0 when [u = v]. *)

val row : t -> int -> float array
(** [row h u] is the weight row of [u] itself, not a copy: [(row h u).(v)]
    is [weight h u v].  Read-only; writing to it corrupts the host. *)

val is_metric : ?tol:float -> t -> bool
(** Triangle inequality [w(u,v) <= w(u,x) + w(x,v)] for all triples, with
    every weight finite and positive off the diagonal. *)

val validate :
  ?tol:float ->
  ?require_metric:bool ->
  t ->
  (unit, Gncg_util.Gncg_error.t) result
(** First-failure validation with a located, typed error: zero diagonal,
    symmetry, no NaN, positive off-diagonal weights, every vertex
    reachable over finite weights; with [require_metric] (default
    [true]) weights must also be finite and satisfy the triangle
    inequality within [tol]
    (pass [~tol:0.0] for exact families such as 1-2 metrics; the default
    [Flt.eps] suits Euclidean and closure-derived hosts).  Non-metric
    families (general, 1-∞) validate with [~require_metric:false]. *)

val metric_closure : t -> t
(** Shortest-path closure: the smallest metric pointwise below the weights.
    Idempotent; equal to the input iff the input is metric. *)

val of_graph_closure : Gncg_graph.Wgraph.t -> t
(** Host whose weights are the shortest-path distances of a (connected)
    weighted graph — the "graph metric" variant.  Disconnected pairs get
    weight [infinity]. *)

val complete_graph : t -> Gncg_graph.Wgraph.t
(** The host as an explicit graph with every finite-weight edge present. *)

val scale : float -> t -> t
(** Multiply every weight by a positive constant. *)

val perturb : Gncg_util.Prng.t -> magnitude:float -> t -> t
(** Add independent uniform noise in \[0, magnitude) to every off-diagonal
    weight (used to break ties in randomized experiments); the result is
    re-symmetrized but not re-metricized. *)

val max_finite_weight : t -> float
(** Largest finite off-diagonal weight; 0 when none exists. *)

val equal : ?tol:float -> t -> t -> bool
