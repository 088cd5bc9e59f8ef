(** Incrementally maintained all-pairs shortest paths.

    The response-dynamics hot loop mutates the network one edge at a time
    (add / delete / swap) and needs fresh distances after every step.
    Rebuilding the graph and re-running [Dijkstra.apsp] costs
    O(n·(m + n log n)) per step; this module keeps a full distance matrix
    in sync with its own mutable edge set instead:

    - {e insertion} of edge [(u,v,w)] is the exact O(n²) relaxation
      [d'(x,y) = min(d(x,y), d(x,u)+w+d(v,y), d(x,v)+w+d(u,y))]
      (one round suffices: with non-negative weights a shortest path
      never crosses a fixed edge twice), run only on the rows the new
      edge can shorten (see {!add_edge});
    - {e deletion} recomputes only the {e affected sources}: a source [s]
      whose shortest paths may use [(u,v)] must have the edge tight, i.e.
      [d(s,u) + w = d(s,v)] or [d(s,v) + w = d(s,u)].  The stored floats
      meet that equality only up to rounding, so the test runs behind
      {!deletion_tol}, the rounding model's margin; it may select more
      rows than the exact test, never fewer.  Rows of unaffected sources
      are provably unchanged; each affected row is settled from its own
      stored values by {!Flat_adj.settle_into}, which re-settles only
      the vertices the removal left unsupported and returns the fresh
      Dijkstra row bit for bit.

    Distances are never NaN and never -0: each is a sum of non-negative
    edge weights, or +inf when unreachable, no kernel subtracts two
    distances, and every zero is a source's own +0.  The kernels rely on this: they
    take minima by compare-select ([if b < a then b else a]), which
    returns the same bits as [Float.min] on such inputs, without its
    sign-bit test.

    Storage is one unboxed [float array] per source row, the row type
    of every pass the store runs: {!Flat_adj.sssp_into} and the settles
    write straight into a stored row or a preallocated workspace (the
    row snapshots of an insertion, the scratch of deletions and
    what-ifs), and a settled deletion row swaps places with the scratch.
    Both updates report a {!Changed_rows.t} of the source rows they
    actually modified, so callers can invalidate per-agent caches
    selectively.

    The edge set lives in one private {!Flat_adj}, which every SSSP pass
    runs on and only {!add_edge} / {!remove_edge} mutate.  Not
    thread-safe; the read-only accessors may be shared across domains
    between updates. *)

type t

val of_graph : Wgraph.t -> t
(** Takes the graph's edge set into a private flat adjacency and
    computes its distances.  Keeps no reference to the graph: later
    edits to either side do not reach the other. *)

val graph : t -> Wgraph.t
(** A fresh snapshot of the tracked edge set (test/oracle convenience,
    like {!matrix}): later updates do not reach it. *)

val mark_neighbours : t -> int -> bool array -> bool -> unit
(** [mark_neighbours t u marks b] sets [marks.(v)] to [b] for every
    neighbour [v] of [u] in the tracked edge set ({!Flat_adj.mark_neighbours}). *)

val n : t -> int

val distance : t -> int -> int -> float

val matrix : t -> float array array
(** A fresh copy of the whole matrix (test/oracle convenience): no
    returned row aliases a stored one. *)

val dist_sum : t -> int -> float
(** Kahan-compensated sum of a source's row, infinite when the source is
    disconnected from anyone — one allocation-free pass over the stored
    row. *)

val dist_sum_with_edge : t -> int -> int -> float -> float
(** [dist_sum_with_edge t u v w] is [Σ_x min(d(u,x), w + d(v,x))] — the
    mover's distance sum after buying edge [(u,v)] (every shortest path
    through a new incident edge starts with it).  Streaming, Kahan,
    infinity-propagating; the what-if {e addition} kernel of the
    response engines. *)

val loose_targets : t -> int -> int array -> float array -> int -> int array -> int
(** [loose_targets t u targets weights k idx] writes to [idx], in
    ascending order, every [i < k] with [d(u, targets.(i)) > weights.(i)]
    and returns their count.  Those are the {e loose} targets, the only
    ones whose new edge [(u, targets.(i))] can shorten a distance from
    [u].  For a {e tight} target ([d(u,v) <= w]) the insertion sum
    {!dist_sum_with_edge} equals {!dist_sum} up to rounding.  No float
    crosses the call. *)

val savings_into : t -> int -> int array -> float array -> int array -> int -> float array -> unit
(** [savings_into t u targets weights idx k out] sets [out.(p)], for
    each position [p = idx.(i)] with [i < k], to the plain sum
    [Σ_x max(0, d(u,x) − (weights.(p) + d(targets.(p),x)))]: what the
    edge [(u, targets.(p))] saves on [u]'s row, so that
    [dist_sum u − out.(p)] is the insertion sum {!dist_sum_with_edge} up
    to rounding.  One unchained accumulator per target, no
    compensation; writes no other slot of [out] and allocates nothing.
    Counts one [incr_apsp.savings_scans] per sum.  Raises
    [Invalid_argument] when [k] exceeds [idx], or a position lies
    outside [targets], [weights] or [out]. *)

val savings_against : t -> float array -> int -> float -> float
(** [savings_against t r v w] is the plain sum
    [Σ_x max(0, r.(x) − (w + d(v,x)))] for a caller-held row [r]
    (a deletion what-if, or a lower bound on one): [Σ r − savings] is
    {!min_sum_against} up to rounding when [r] is finite.  +inf when an
    infinite entry of [r] meets a finite [w + d(v,x)].  Counts one
    [incr_apsp.savings_scans]. *)

val neighbour_bounds : t -> int -> float array -> int array -> float array -> unit
(** [neighbour_bounds t u best arg second] is
    {!Flat_adj.nearest_two_into} on the tracked edge set and the stored
    rows: per vertex [x <> u], the least [w(u,z) + d(z,x)] over [u]'s
    neighbours [z], a neighbour attaining it, and the least over the
    other neighbours.  A path from [u] leaves through one first edge, so
    after deleting the edge [(u,o)] no distance from [u] to [x] lies
    below [if arg.(x) = o then second.(x) else best.(x)], up to the
    rounding of stored distances (docs/ALGORITHMS.md, "Bound-first
    evaluation").  One pass over each neighbour's row, no allocation. *)

val min_sum_against : t -> float array -> int -> float -> float
(** [min_sum_against t r v w] is [Σ_x min(r.(x), w + d(v,x))]: the same
    insertion relaxation applied to a caller-held row [r] (typically a
    deletion what-if), used as an exact lower bound on swap what-ifs. *)

val total : t -> float
(** Kahan-compensated sum over all ordered pairs, row-major; infinite
    when any pair is disconnected. *)

val total_with_edge_added : t -> int -> int -> float -> float
(** [total_with_edge_added t u v w] is the {!total} that [add_edge t u v w]
    would leave, bit for bit, without touching the matrix: the same
    insertion minimum per entry, summed in the same order.  O(n²), no
    allocation; the inner loop of the social-optimum local search. *)

val add_edge : t -> int -> int -> float -> Changed_rows.t
(** Inserts the edge and updates the rows in O(n²) without allocating
    (beyond the returned report).  Returns exactly the rows with at
    least one strictly decreased entry.  Raises like
    {!Flat_adj.add_edge} on invalid arguments; the edge must not already
    be present.

    Each row is relaxed only along the routes through the new edge
    [(u,v,w)] that can shorten it.  With [M] the largest finite entry of
    rows [u] and [v] and [δ = Flt.stored_margin n (2M + w)], row [x]
    is relaxed along [x -> u -> v] only when
    [fl(d(u,x) + w) < fl(d(v,x) + δ)], and along [x -> v -> u] only
    under the mirror test; a row failing both is skipped.  The stored
    entries meet the triangle inequality through [u] and [v] far inside
    [δ], so a route that fails its test offers no entry less than it
    holds (docs/ALGORITHMS.md, "Insertion support").  The matrix and the
    report are the ones relaxing every row along both routes gives.
    [incr_apsp.rows_relaxed] counts the rows relaxed.  A changed row that
    had a suspect set gets the set of vertices that fail now, from its
    old set, the endpoints and the entries the insertion lowered, with
    their neighbours ({!suspects}). *)

val remove_edge : t -> int -> int -> Changed_rows.t
(** Removes the edge (no-op when absent) and recomputes the rows of
    affected sources only, each settled from its stored values in the
    preallocated scratch row by {!Flat_adj.settle_into}, whose local
    test runs only on the row's {!suspects} and the endpoints when the
    row has a set.  Returns exactly the recomputed rows that differ from
    their previous contents.  The [incr_apsp.deletion_rows_recomputed]
    counter counts the rows, and [incr_apsp.settled_vertices] the
    vertices they re-settled. *)

val deletion_tol : int -> float -> float -> float -> float
(** [deletion_tol n dsu dsv w] is the tolerance of {!remove_edge}'s
    tightness test on a row with [d(s,u) = dsu] and [d(s,v) = dsv] for
    an edge of weight [w]: [max Flt.eps (Flt.stored_margin n (max dsu
    dsv +. w))], bit for bit.  An inlined copy of the [Flt] margin, so
    that the per-row test boxes no float (docs/ALGORITHMS.md, "Rounding
    model"). *)

val sssp_edited_into :
  t -> ?remove:int * int -> ?add:int * int * float -> int -> float array -> unit
(** [sssp_edited_into t ?remove ?add source dst] writes into [dst]
    (length >= n, checked before any edit) the single-source distances
    on a hypothetical edit of the tracked graph (one edge removed and/or
    one added), without touching the maintained matrix: the flat
    adjacency is edited, the source's live row is settled on it
    ({!Flat_adj.sssp_edited_listed_into} from the row's {!suspects}, bit
    for bit a fresh pass), and the edit is undone, also when the pass
    raises.  Absent removals and
    already-present additions are ignored.  The what-if primitive of
    single-move evaluation; allocation independent of n; not
    thread-safe. *)

val sssp_edited_sum : t -> ?remove:int * int -> ?add:int * int * float -> int -> float
(** [Flt.sum] of the {!sssp_edited_into} row computed through the internal
    scratch row — the allocation-free form the response engines use when
    only the distance sum matters. *)

val suspects : t -> int -> int list option
(** Row [s]'s suspect set, ascending: every vertex of the row outside it
    passes the local test of {!Flat_adj.settle_into} on the tracked
    edge set, so a deletion row or a what-if from [s] tests only these
    vertices and the endpoints of its edit.  [None] when the row has no
    set; its next what-if then scans the whole row once
    ([incr_apsp.full_scans]) and keeps the result when it holds at most
    8 vertices.  Insertions rewrite the sets of the rows they change
    ({!Flat_adj.insertion_failing_into}: the old suspects, the endpoints
    and the lowered entries are tested in full, their neighbours for a
    lower offer) and add an endpoint to another row's set when the new
    edge offers it less; deletions rewrite the sets of the rows they
    settle; a set that would outgrow 8 vertices, a rebuild and
    {!inject_cell_error} drop them (docs/ALGORITHMS.md, "Suspect
    sets").  The sets decide only which vertices are tested:
    every row and count is the one a full scan gives.  Test/oracle
    convenience. *)

(** {1 Drift sentinel}

    A configurable-cadence cross-check of the maintained matrix against
    ground truth.  Every [N] updates ({!add_edge} / {!remove_edge}) the
    engine runs a cheap probe — an O(n²) symmetry sweep (any single-cell
    corruption breaks [d(u,v) = d(v,u)]) plus one fresh Dijkstra
    recompute of a round-robin sampled source row, both compared under
    {!Gncg_util.Flt.stored_eq}, so legitimate rounding is never drift at
    any weight scale.  On a
    mismatch it degrades gracefully: the [incr_apsp.selfcheck_mismatches]
    and [incr_apsp.selfcheck_repairs] observability counters are bumped,
    the whole matrix is rebuilt from the edge set, and the triggering
    update's change report covers every row so the layers above
    invalidate their caches. *)

val set_selfcheck : t -> int -> unit
(** Sets the probe cadence: check every [n] updates; [0] (the default)
    disables the sentinel.  Resets the countdown. *)

val selfcheck_now : t -> bool
(** Runs one probe immediately (outside the cadence), repairing on
    mismatch.  Returns [true] when the matrix was clean. *)

val set_default_selfcheck : int -> unit
(** Process-wide default cadence applied to newly created engines — how
    the CLI's [--selfcheck N] reaches internally constructed instances.
    Set once at startup. *)

val inject_cell_error : t -> int -> int -> float -> unit
(** [inject_cell_error t u v delta] perturbs the single maintained cell
    [d(u,v)] by [delta] {e without} touching the edge set — a fault-injection
    hook for exercising the sentinel in tests and chaos runs. *)
