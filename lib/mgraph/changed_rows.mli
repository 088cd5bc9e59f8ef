(** Mutable bitsets over the row indices [0 .. n-1] of a distance matrix.

    The incremental APSP updates ({!Incr_apsp.add_edge} /
    {!Incr_apsp.remove_edge}) report which source rows they touched so
    that the layers above (the dynamics idle flags) can invalidate
    per-agent work selectively instead of wholesale.  The report is
    {e sound}: every row whose distances differ from before the update
    is a member.  It may over-approximate (a recomputed-but-identical
    row can be reported), never the reverse. *)

type t

val create : int -> t
(** [create n] is the empty set over rows [0 .. n-1]. *)

val size : t -> int
(** The universe size [n] (not the cardinality). *)

val mem : t -> int -> bool

val add : t -> int -> unit

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Ascending row order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending row order. *)

val to_list : t -> int list
(** Ascending row order. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every member of [src] to [dst]; the
    universes must have equal size. *)
