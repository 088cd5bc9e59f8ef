(** Sample statistics of float lists. *)

val mean : float list -> float

val median : float list -> float
