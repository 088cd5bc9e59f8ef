(** Best-response / improving-move cycles: the FIP violations of
    Theorems 14 (tree metrics, Fig. 5) and 17 (ℓ1 point sets, Fig. 8).

    The paper specifies the instances (Fig. 5's tree edge weights, Fig. 8's
    ten integer points) but the cycling strategy sequences only appear in
    the drawings; we therefore *search* for cycles on these and on random
    instances by running improving-response dynamics until a strategy
    profile repeats — a repeat is a complete certificate (every transition
    strictly improves its mover and the sequence returns to its start). *)

val fig8_host : alpha:float -> Gncg.Host.t
(** The ℓ1 host on the ten points of Thm. 17:
    (3,0) (0,3) (2,2) (0,2) (1,1) (4,3) (2,0) (4,1) (1,4) (1,0). *)

val random_profile : Gncg_util.Prng.t -> Gncg.Host.t -> Gncg.Strategy.t
(** A random connected starting profile: a uniformly random spanning-tree
    orientation plus a few random extra purchases. *)

val fig5_like_instance : unit -> Gncg.Host.t * Gncg.Strategy.t list
(** A concrete tree-metric improving-move cycle in the spirit of Fig. 5
    (Thm. 14): a 10-vertex tree using exactly the figure's edge-weight
    multiset {3,7,2,5,12,9,11,2,10}, α = 2, and a four-move cycle in which
    two agents alternate a delete/add with a pair of swaps.  Found by
    search, stored verbatim; validate with {!verify_cycle}. *)

val fig8_cycle : unit -> Gncg.Host.t * Gncg.Strategy.t list
(** A concrete improving-move cycle on the paper's own Fig. 8 point set
    (Thm. 17) under the 1-norm with α = 1: eight moves returning to the
    initial profile.  Found by search, stored verbatim. *)

type found = {
  host : Gncg.Host.t;
  start : Gncg.Strategy.t;
  cycle : Gncg.Strategy.t list;  (** first = last *)
  rule : Gncg.Dynamics.rule;
}

val search_host :
  ?rules:Gncg.Dynamics.rule list ->
  ?tries:int ->
  ?max_steps:int ->
  Gncg_util.Prng.t ->
  Gncg.Host.t ->
  found option
(** Improving-response dynamics from random starts on one host, under each
    rule, until a cycle certificate appears. *)

val search_generated :
  ?rules:Gncg.Dynamics.rule list ->
  ?tries:int ->
  ?max_steps:int ->
  host_gen:(Gncg_util.Prng.t -> Gncg.Host.t) ->
  Gncg_util.Prng.t ->
  found option
(** Same, drawing a fresh host per try. *)

val verify_cycle : Gncg.Host.t -> Gncg.Strategy.t list -> bool
(** Certificate check: at least one transition, first equals last, each
    consecutive pair differs in exactly one agent's strategy, and that
    change strictly lowers the mover's cost. *)
