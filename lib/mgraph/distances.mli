(** Aliases of {!Incr_apsp}, the one distance store, kept for callers
    that still name it through this module.  New code should use
    {!Incr_apsp} directly. *)

type t = Incr_apsp.t

val dense : Wgraph.t -> t
(** {!Incr_apsp.of_graph}. *)

val dist_sum : t -> int -> float
(** {!Incr_apsp.dist_sum}. *)
