(** The closing example of Section 4 (after Theorem 20).

    A non-metric host on three vertices — a triangle with weights 0, 1 and
    (α+2)/2 — showing that the per-pair accounting of Thm. 20 cannot beat
    ((α+2)/2)²: the pair [(u,v)] joined by the heavy edge attains
    [σ = ((α+2)/2)²] while the actual equilibrium-vs-optimum cost ratio is
    only [(α+2)/2].

    Vertices: 0 and 1 joined by the 0-edge, 2 the far vertex;
    [w(1,2) = 1], [w(0,2) = (α+2)/2]. *)

val host : alpha:float -> Gncg.Host.t

val ne_profile : alpha:float -> Gncg.Strategy.t option
(** A Nash ownership of the heavy path, found by search. *)

val sigma_heavy_pair : alpha:float -> float
(** The per-pair ratio of the heavy pair: ((α+2)/2)². *)

val cost_ratio : alpha:float -> float
(** Actual NE/OPT social-cost ratio of the two networks: (α+2)/2. *)
