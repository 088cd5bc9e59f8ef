(** Sample statistics of float lists. *)

val mean : float list -> float
