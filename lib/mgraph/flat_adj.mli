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

val sssp_edited_into :
  t -> ?remove:int * int -> ?add:int * int * float -> int -> float array -> int
(** {!sssp_into} on a hypothetical edit: the edge [remove] taken out
    and/or the edge [add] put in, then both undone.  An absent removal
    or an already-present addition is ignored; the removal applies
    first.  The prior contents of [dst] are a starting guess for
    {!settle_into}, which runs on the edited adjacency: the result does
    not depend on them, but a guess close to the edited row (the source's
    row before the edit) makes the pass cheap.  Below 64 vertices the
    guess is ignored and a plain {!sssp_into} runs, which measured faster
    there.  Returns {!settle_into}'s count ([n] for a plain pass).  Every argument is checked before the first edit, and the
    edits are undone even if the pass raises, so the adjacency always
    leaves with the edge set it came with (neighbour order may differ,
    which no result depends on). *)
