(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the repository flows through this module so
    that all experiments are reproducible bit-for-bit from a seed.  The
    generator is the SplitMix64 sequence of Steele, Lea and Flood, which has
    a 64-bit state, passes BigCrush, and is trivially splittable. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. *)

val split : t -> t
(** [split t] advances [t] and returns an independent generator; the two
    streams do not overlap in practice. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in \[lo, hi). *)

val bool : t -> bool
(** Fair coin. *)

val coin : t -> float -> bool
(** [coin t p] is [true] with probability [p]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of \[0..n-1\]. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct values from
    \[0..n-1\]; requires [k <= n]. *)
