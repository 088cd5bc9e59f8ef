(** Uncapacitated facility location.

    Theorem 3 of the paper reduces an agent's strategy choice to an
    uncapacitated metric facility location (UMFL) instance: facilities are
    the other agents, opening facility [f] costs [α·w(u,f)] (0 when [f]
    already buys an edge to [u]), and serving client [j] from [f] costs
    [w(u,f) + d_{G'}(f,j)].  We use the reduction in both directions:

    - the {!solve_exact} branch-and-bound yields *exact best responses* for
      the sizes used in tests and experiments;
    - the {!local_search} of Arya et al. (locality gap 3) yields
      polynomial-time responses whose stability corresponds to the 3-NE
      guarantee of Thm. 3. *)

type instance = {
  open_cost : float array;  (** per facility; may be 0 or infinite *)
  service : float array array;
      (** [service.(f).(c)]: cost of serving client [c] from facility [f];
          may be infinite *)
  forced_open : bool array;  (** facilities that every solution must open *)
}

val make :
  ?forced_open:bool array ->
  open_cost:float array ->
  service:float array array ->
  unit ->
  instance
(** Validates dimensions; [forced_open] defaults to all-false. *)

val num_facilities : instance -> int

val num_clients : instance -> int

val cost : instance -> bool array -> float
(** Total cost of a set of open facilities: opening costs plus each
    client's distance to its closest open facility ([infinity] when a
    client is unservable or a forced facility is closed). *)

val solve_exact : ?start:bool array * float -> instance -> bool array * float
(** Optimal solution by branch-and-bound over facilities.  The search
    starts from the incumbent [start] (an open set and its cost; the
    {!local_search} result by default) and returns it unless some set
    costs less by more than [Flt.eps].  Each node is bounded by the
    suffix minima of the service costs and then by a dual-ascent
    (DUALOC) bound; costs must be non-negative for the latter, which is
    skipped otherwise.  Exponential worst case.  Every explored node
    ticks [facility_location.bb_nodes]. *)

val local_search : instance -> bool array * float
(** Arya et al. add/drop/swap local search from the all-open solution; the
    result cannot be improved by opening, closing or swapping a single
    facility (a 3-approximation on metric instances). *)

val improve_step : instance -> bool array -> (bool array * float) option
(** One improving open/close/swap step if any exists (tolerance-guarded). *)
