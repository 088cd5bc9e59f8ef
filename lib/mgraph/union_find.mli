(** Disjoint-set forest with union-by-rank and path compression. *)

type t

val create : int -> t

val union : t -> int -> int -> bool
(** [union t a b] merges the two classes; returns [false] when they were
    already joined. *)

val same : t -> int -> int -> bool

val count : t -> int
(** Number of distinct classes. *)
