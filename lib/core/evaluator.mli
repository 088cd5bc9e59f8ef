(** The engine's best-move evaluators — one shared type for
    [Dynamics.run], the equilibrium trackers and the runs subsystem.

    - [`Reference]: the stateless {!Greedy} scan — one flat adjacency of
      the current network per agent, one shortest-path pass per sold
      owned edge and per addable target, and every swap priced from two
      of those rows, every gain bitwise {!Greedy.move_gain}'s; the
      specification the other is tested against;
    - [`Incremental]: the live distance-matrix engine ({!Net_state} +
      {!Fast_response}) — the hot path. *)

type t =
  [ `Reference
  | `Incremental
  ]

val all : t list

val to_string : t -> string
(** ["reference"] | ["incremental"] — the spelling used by the
    [--evaluator] CLI flag and the journal manifests. *)

val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
