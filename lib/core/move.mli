(** Single-edge strategy changes: the moves of Greedy Equilibria (Lenzner).

    A move is relative to one agent: buy one edge, delete one owned edge,
    or swap one owned edge for a new one. *)

type t =
  | Add of int      (** buy the edge towards this agent *)
  | Delete of int   (** stop buying the edge towards this agent *)
  | Swap of int * int  (** [Swap (old_target, new_target)] *)

val apply : Strategy.t -> agent:int -> t -> Strategy.t
(** Raises [Invalid_argument] for incoherent moves (adding an owned target,
    deleting or swapping an unowned one). *)

val addable : Host.t -> Strategy.t -> agent:int -> int -> bool
(** Is [v] a legal addition target for the agent — distinct, absent from
    [G(s)] in both directions, finite host weight?  The shared predicate
    behind the [Add]/[Swap] candidates here, the streaming kernels of
    [Fast_response], and the dirty-agent analyses of [Dynamics] and
    [Equilibrium.Tracker] (a changed distance row can enter a row-local
    verdict only through an addable target). *)

val dist_sum_after :
  Gncg_graph.Flat_adj.t ->
  Host.t ->
  Strategy.t ->
  agent:int ->
  current:float ->
  float array ->
  t ->
  float
(** [dist_sum_after adj host s ~agent ~current row mv]: the agent's
    distance sum in the network of the moved profile, where [adj] holds
    [G(s)] and [current] is the agent's distance sum in it.  One what-if
    pass ([Flat_adj.sssp_edited_into]) into [row], which must have length
    at least [n]; [adj] is left as it came.  A sold edge that the other
    endpoint also buys stays built, so such a [Delete] changes nothing
    and returns [current] without a pass.  For every move of
    {!candidates} the sum is bitwise the one [Dijkstra.sssp] gives on the
    moved profile's rebuilt network. *)

val candidates : ?kinds:[ `Add | `Delete | `Swap ] list -> Host.t -> Strategy.t -> agent:int -> t list
(** All coherent single-edge moves for the agent.  [Add v] is proposed only
    when the edge [(u,v)] is absent from [G(s)] in both directions (buying
    an edge the other side already owns can never strictly help) and the
    host weight is finite.  [kinds] defaults to all three. *)

val pp : Format.formatter -> t -> unit
