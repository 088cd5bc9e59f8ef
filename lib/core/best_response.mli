(** Best-response computation.

    Computing a best response is NP-hard in every variant of the game
    (Cor. 1, Thms. 13 and 16), so exact computation is exponential.  Two
    exact engines are provided — direct strategy enumeration, and a
    branch-and-bound over the facility-location correspondence of Thm. 3 —
    plus the polynomial local-search response whose fixed points are the
    3-approximate responses of Thm. 3. *)

val umfl_instance :
  Host.t -> Strategy.t -> int -> Facility_location.instance * (bool array -> Strategy.ISet.t)
(** [umfl_instance host s u] is the facility-location instance encoding
    agent [u]'s strategy choice given everyone else's strategies, together
    with the decoder from open-facility sets to strategies.  Facilities
    already buying an edge to [u] are forced open with cost 0 (they are
    connected whatever [u] does). *)

val exact : Host.t -> Strategy.t -> int -> Strategy.ISet.t * float
(** Optimal strategy for the agent and its cost, by branch-and-bound. *)

val exact_enum : Host.t -> Strategy.t -> int -> Strategy.ISet.t * float
(** Independent oracle: enumerate all 2^(n-1) strategies, evaluating each
    on a freshly built network.  Only for small [n]. *)

val exact_and_local :
  Host.t -> Strategy.t -> int -> (Strategy.ISet.t * float) * (Strategy.ISet.t * float)
(** [(exact host s u, local)] from one instance, where [local] is the
    facility-location local search's response: a polynomial-time
    response that cannot be improved by opening/closing/swapping a single
    facility.  That local optimum also seeds the exact search. *)

val best_cost : Host.t -> Strategy.t -> int -> float
(** Cost of the exact best response (branch-and-bound). *)
