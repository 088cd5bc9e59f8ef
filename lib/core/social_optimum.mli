(** Social optimum networks.

    Finding OPT is a variant of the classical Network Design Problem and is
    suspected NP-hard for all model variants except the 1-2–GNCG and the
    T–GNCG (Sec. 1.2), so exact computation enumerates subgraphs and is
    limited to tiny instances; the named polynomial cases have dedicated
    solvers (Thm. 6, Cor. 3), and a heuristic covers the rest. *)

val exact_small : Host.t -> Gncg_graph.Wgraph.t * float
(** Optimal network by enumeration over all subsets of the finite-weight
    host edges.  Refuses instances with more than 16 candidate edges. *)

val exact_bnb : Host.t -> Gncg_graph.Wgraph.t * float
(** Optimal network by branch-and-bound over edge inclusion, warm-started
    by the heuristic: the relaxation keeping all undecided edges lower
    bounds the distance cost, the decided edges lower bound the building
    cost.  Refuses instances with more than 28 candidate edges (n = 8),
    the most it handles in reasonable time. *)

val algorithm_one : Host.t -> Gncg_graph.Wgraph.t * float
(** Algorithm 1 of the paper: for a 1-2 host with α <= 1, start from the
    complete host graph and delete the 2-edge of every 1-1-2 triangle.
    Raises [Invalid_argument] on non-1-2 hosts. *)

val tree_optimum : Gncg_metric.Tree_metric.tree -> Host.t -> Gncg_graph.Wgraph.t * float
(** Cor. 3: on the host defined by tree [T], the tree itself is the social
    optimum (it is the cheapest network preserving all host distances). *)

val greedy_heuristic : Host.t -> Gncg_graph.Wgraph.t * float
(** MST seed, then steepest local search over single-edge additions and
    deletions of the network.  Additions are evaluated through the exact
    distance-matrix insertion update (O(n²) per candidate). *)

val best_known : Host.t -> Gncg_graph.Wgraph.t * float
(** Exact (branch-and-bound) up to 7 agents, otherwise the heuristic. *)

val complete_host_cost : Host.t -> float
(** Social cost of buying every finite edge — the trivial upper bound used
    in Thm. 8. *)
