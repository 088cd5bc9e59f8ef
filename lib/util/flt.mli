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

val is_finite : float -> bool

val max_array : float array -> float
(** Maximum of a non-empty array. *)

val sum : float array -> float
(** Kahan-compensated sum. *)
