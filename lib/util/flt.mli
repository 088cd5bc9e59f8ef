(** Tolerant floating-point comparisons.

    Game costs are sums of edge weights; a strategy change only counts as an
    improvement if it beats the incumbent by more than the tolerance, so that
    floating-point noise never produces spurious improving moves. *)

val eps : float
(** Default absolute tolerance (1e-9). *)

val approx_eq : ?tol:float -> float -> float -> bool
(** [approx_eq a b] holds when [|a - b| <= tol]. *)

val lt : ?tol:float -> float -> float -> bool
(** Strictly-less-than with tolerance: [a < b - tol]. *)

val le : ?tol:float -> float -> float -> bool
(** Less-or-equal with tolerance: [a <= b + tol]. *)

(** {1 Rounding model of stored distances}

    A stored distance of an [n]-vertex network, from a Dijkstra pass, a
    settle or any number of insertion relaxations, lies within a
    relative [ρ ≈ 4n·u] of the exact distance ([u = epsilon_float / 2]).
    Every tolerance on stored distances instantiates the margins below
    with the magnitude of what it compares (docs/ALGORITHMS.md,
    "Rounding model"). *)

val stored_margin : int -> float -> float
(** [stored_margin n mag] is [8n·ε·mag] ([ε = epsilon_float]): twice
    the rounding [ρ·mag] that a comparison between stored distances of
    an [n]-vertex network, of magnitude at most [mag], can meet. *)

val sum_margin : int -> float -> float
(** [sum_margin k mag] is [2k·ε·mag]: about twice the rounding of a
    float sum of at most [k] non-negative terms of total [mag]. *)

val stored_eq : int -> float -> float -> bool
(** [stored_eq n a b]: [a] and [b] are the same distance of an
    [n]-vertex network up to the model: equal, or both finite with
    [|a − b| <= max eps (stored_margin n (max a b))].  A finite value
    never equals an infinite one. *)

val max_array : float array -> float
(** Maximum of a non-empty, NaN-free array. *)

val sum : float array -> float
(** Kahan-compensated sum. *)
