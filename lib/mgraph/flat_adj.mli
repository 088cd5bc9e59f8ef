(** Flat adjacency and the reusable single-source shortest-path kernel of
    the distance stores.

    Each vertex holds an array of neighbour ids and an unboxed array of
    edge weights, plus its degree.  Adding an edge appends to both
    endpoints; removing one swap-removes it in O(degree).  The structure
    also owns the scratch of one indexed binary heap, so {!sssp_into}
    allocates nothing: the heap stores vertex ids only and is keyed on
    the output row itself, and the loop passes no float across a
    function call.  {!sssp_into} is {!sssp_bounded_into} from the source
    at [0.0] under an all-[+inf] bound, which the structure keeps with a
    reached-id scratch.

    The kernel computes exactly the distances of {!Dijkstra.sssp} on the
    same edge set.  Each is the minimum, over all paths from the source,
    of the path's length summed edge by edge in floating point.  Dijkstra
    finds that minimum whatever its neighbour order or heap tie-breaking,
    because each step [x -> fl(x + w)] is monotone and never below [x]
    (weights are non-negative and rounding is monotone).

    Not thread-safe: one value serves one domain. *)

type t

val of_wgraph : Wgraph.t -> t
(** The same edge set as the graph, in flat form. *)

val to_wgraph : t -> Wgraph.t
(** A fresh graph with the same edge set and weights. *)

val has_edge : t -> int -> int -> bool

val weight : t -> int -> int -> float option
(** Weight of the edge [(u,v)] if present. *)

val degree : t -> int -> int

val mark_neighbours : t -> int -> bool array -> bool -> unit
(** [mark_neighbours t u marks b] sets [marks.(v)] to [b] for every
    neighbour [v] of [u]: O(degree), no allocation. *)

val nearest_two_into :
  t -> float array array -> int -> float array -> int array -> float array -> unit
(** [nearest_two_into t rows u best arg second] sets, for every vertex
    [x <> u], [best.(x)] to the least [fl(w(u,z) + rows.(z).(x))] over
    the neighbours [z] of [u], [arg.(x)] to a neighbour that attains it,
    and [second.(x)] to the least such offer of the neighbours other
    than [arg.(x)]; +inf and [-1] when there is no such neighbour.  At
    [u] itself both values are [0] and [arg.(u)] is [-1].  Hence the
    least offer of the neighbours other than [o] is
    [if arg.(x) = o then second.(x) else best.(x)], for every [o].  One
    pass over each neighbour's row, no allocation.  Raises
    [Invalid_argument] when an array or a neighbour's row is shorter
    than [n]. *)

val add_edge : t -> int -> int -> float -> unit
(** Appends the undirected edge [(u,v)] with weight [w >= 0].  Raises
    [Invalid_argument] on self-loops, out-of-range vertices, negative or
    NaN weights, and edges already present. *)

val remove_edge : t -> int -> int -> unit
(** Swap-removes the edge from both endpoints; no-op when absent. *)

val copy : t -> t
(** An independent copy: later edits to either side do not reach the
    other. *)

val sssp_into : t -> int -> float array -> unit
(** [sssp_into t s row] writes the distances from [s] into
    [row.(0 .. n-1)] ([Float.infinity] when unreachable; longer rows keep
    their tail).  Allocation-free.  Raises [Invalid_argument] when [s] is
    out of range or the row is shorter than [n]. *)

val sssp_bounded_into :
  t -> src:int -> start:float -> bound:float array -> float array -> int array -> int
(** [sssp_bounded_into t ~src ~start ~bound dist reached] is a pass from
    [src], seeded at [start >= 0], that settles only values strictly
    below [bound]: [dist.(x)] becomes the least float length, [start]
    plus the edges summed one by one, over the paths from [src] to [x]
    whose running value stays below [bound] at every vertex, and [+inf]
    when no such path exists.  A vertex whose {!sssp_into}-style value is
    below [bound] along all of one shortest path therefore gets exactly
    that value.  [dist.(0 .. n-1)] must be [+inf] on entry.  The vertices
    given a value are written to [reached.(0 .. k-1)] and [k] is
    returned; resetting just those entries leaves [dist] ready for the
    next pass.  Allocation-free.  Raises [Invalid_argument] when [src] is
    out of range, [start] is negative or NaN, or an array is shorter
    than [n]. *)

val isolate : t -> int -> unit
(** Removes every edge at the vertex. *)

val settle_into : t -> int -> float array -> int
(** [settle_into t s row] turns any [row.(0 .. n-1)] with [row.(s) = 0]
    into exactly the row {!sssp_into} would write, bit for bit, and works
    only where the guess is wrong (or tied across a zero-weight edge,
    which gives no strict predecessor).  Each {!sssp_into} distance is the
    least float path sum, so that row is the least fixed point of
    [r(x) = min_p fl(r(p) + w(p,x))] with [r(s) = 0].  A vertex other
    than [s] passes when no edge offers it less and, if its value is
    finite, some edge [(p,x)] is a strict exact predecessor:
    [r(p) < r(x) = fl(r(p) + w)].  The failing vertices and, transitively,
    their tight children are reset to [+inf], seeded from their
    neighbours and settled by the Dijkstra loop, which also lowers any
    other vertex it improves.  The test costs one look at each edge; a
    guess that passes everywhere is left as it is.  When [row.(s)] is
    not [0] (NaN included) the call is a plain {!sssp_into}.  Returns
    the number of vertices reset or lowered ([n] for a plain pass).
    Allocation-free once warm: the first call sizes a reset queue and
    flag array of [n] entries each, kept by the adjacency.  Raises
    [Invalid_argument] when [s] is out of range or the row is shorter
    than [n]. *)

val settle_listed_into : t -> int -> float array -> int array -> int -> int
(** [settle_listed_into t s row suspects k] is {!settle_into} whose
    local test runs only on [suspects.(0 .. k-1)], in any order, with
    repeats and [s] allowed.  Every other vertex of the row must pass
    the test on the current adjacency; the failing set, and with it the
    result, the count and every step after the test, is then exactly
    {!settle_into}'s.  A negative [k] tests every vertex.  Raises
    [Invalid_argument] when a listed vertex is out of range or [k]
    exceeds [suspects]. *)

val failing_into : t -> int -> float array -> int array -> int
(** [failing_into t s row out] writes the vertices [x <> s] of the row
    that fail {!settle_into}'s local test to [out], in ascending order,
    and returns their count: the full scan whose result
    {!settle_listed_into} and {!sssp_edited_listed_into} can reuse while
    the row and the adjacency stay as they are.  Allocation-free.
    Raises [Invalid_argument] when [out] or the row is shorter than
    [n]. *)

val settled_failing_into : t -> float array -> int array -> int
(** Right after a settle ({!settle_into}, {!settle_listed_into}) of
    [row], and before any other pass on the adjacency: writes the
    vertices of the settled row that fail the local test to [out], in
    ascending order, and returns their count.  Only the vertices the
    settle pushed can fail, so this tests only them.  Returns [-1] when
    more than [Array.length out] fail, or when the call was a plain
    pass (the test then has nothing to go on). *)

val insertion_failing_into :
  t -> float array -> int -> int array -> int -> int array -> int -> int array -> int
(** [insertion_failing_into t row s listed nlisted lowered nlowered out]
    reads the row of source [s] right after an edge was added to [t] and
    the insertion lowered exactly the entries
    [lowered.(0 .. nlowered-1)] of it, listed in any order and with
    repeats allowed.  Every vertex outside [listed.(0 .. nlisted-1)]
    (the row's old suspects and the new edge's endpoints) must have
    passed {!settle_into}'s local test before.  The call writes the
    vertices of the row that fail the test now to [out], in ascending
    order, and returns their count, or [-1] when more than
    [Array.length out] fail.  It runs the local test of {!failing_into}
    on the listed and lowered vertices, and tests a neighbour of a
    lowered vertex only for a lower offer from it: nothing else that a
    vertex's test reads has changed (docs/ALGORITHMS.md, "Suspect
    sets").  Allocation-free once the adjacency has settled a row.
    Raises [Invalid_argument] when [s] or a listed or lowered vertex is
    out of range, a count exceeds its array or the row is shorter than
    [n]. *)

val whatif_settle_min_n : int
(** 64: below this many vertices a what-if ignores its guess and runs a
    plain {!sssp_into}, which measured faster there. *)

val sssp_edited_into :
  t -> ?remove:int * int -> ?add:int * int * float -> int -> float array -> int
(** {!sssp_into} on a hypothetical edit: the edge [remove] taken out
    and/or the edge [add] put in, then both undone.  An absent removal
    or an already-present addition is ignored; the removal applies
    first.  The prior contents of [dst] are a starting guess for
    {!settle_into}, which runs on the edited adjacency: the result does
    not depend on them, but a guess close to the edited row (the source's
    row before the edit) makes the pass cheap.  Below
    {!whatif_settle_min_n} vertices the guess is ignored and a plain
    {!sssp_into} runs.  Returns {!settle_into}'s count ([n] for a plain
    pass).  Every argument is checked before the first edit, and the
    edits are undone even if the pass raises, so the adjacency always
    leaves with the edge set it came with (neighbour order may differ,
    which no result depends on). *)

val sssp_edited_listed_into :
  t ->
  ?remove:int * int ->
  ?add:int * int * float ->
  suspects:int array ->
  count:int ->
  int ->
  float array ->
  int
(** {!sssp_edited_into} whose settle tests only [suspects.(0 .. count-1)]
    and the endpoints of the edit.  Every other vertex of the guess
    [dst] must pass the local test on the {e unedited} adjacency, as
    when [suspects] is the {!failing_into} list of the unedited row.
    Only the edit's endpoints see their edges change, so the settle
    finds the same failing set as {!sssp_edited_into}, and the result
    and the count are the same.  A negative [count] tests every vertex.
    Allocates what {!sssp_edited_into} does. *)
