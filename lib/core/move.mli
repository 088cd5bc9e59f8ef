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
    [Fast_response], and the idle-verdict preservation of [Dynamics.run]
    (a changed distance row can enter a row-local verdict only through an
    addable target). *)

val candidates : ?kinds:[ `Add | `Delete | `Swap ] list -> Host.t -> Strategy.t -> agent:int -> t list
(** All coherent single-edge moves for the agent.  [Add v] is proposed only
    when the edge [(u,v)] is absent from [G(s)] in both directions (buying
    an edge the other side already owns can never strictly help) and the
    host weight is finite.  [kinds] defaults to all three. *)
