(** Rendering sweep results as the plain-text tables the benchmark harness
    prints. *)

val print_runs : Sweep.run list -> unit
(** One row per run. *)

val print_ratio_summary : group_label:string -> (string * Sweep.run list) list -> unit
(** One row per group: count, converged fraction, mean/max ratio. *)

val runs_to_csv : Sweep.run list -> string
(** RFC-4180-ish CSV with a header row (no quoting needed: all cells are
    numeric or simple identifiers). *)

val runs_to_json : Sweep.run list -> string
(** JSON array of run objects (NaN/infinity rendered as [null]). *)
