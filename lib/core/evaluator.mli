(** The engine's best-move evaluators — one shared type for
    [Dynamics.run], [Dynamics.deviation], the equilibrium trackers and
    the runs subsystem (each used to declare its own copy of this
    polymorphic variant).

    - [`Reference]: rebuild the network and run fresh Dijkstras per
      candidate move — the specification the others are tested against;
    - [`Fast]: batched gain evaluation with shared SSSP passes and no
      threaded state — what {!Dynamics.deviation} runs when passed
      [`Incremental] (counted on [dynamics.evaluator_degradations]);
    - [`Incremental]: the live distance-matrix engine ({!Net_state} +
      {!Fast_response}) — the hot path. *)

type t =
  [ `Reference
  | `Fast
  | `Incremental
  ]

val all : t list

val to_string : t -> string
(** ["reference"] | ["fast"] | ["incremental"] — the
    spelling used by the [--evaluator] CLI flag and the journal
    manifests. *)

val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
