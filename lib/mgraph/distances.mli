(** Pluggable distance storage — the [DISTANCES] seam.

    Everything above mgraph (cost caches, response engines, dynamics,
    equilibrium trackers) reads pairwise network distances through this
    module, so the storage can be:

    - {b dense} — the historic flat floatarray {!Incr_apsp} (default);
    - {b tree} — an implicit Euler-tour/LCA oracle for tree networks,
      O(n log n) ints, no matrix ({!Tree_dist});
    - {b rd} — an implicit p-norm oracle for complete networks on R^d
      point sets, O(n·d) floats, no matrix ({!Rd_dist}).

    The seam is a first-class module pack: one indirect call per
    operation, all of which are O(n) or worse except single gets.

    {b Contract} (shared with {!Incr_apsp}): [add_edge] / [remove_edge]
    mutate the tracked network and return a sound {!Changed_rows.t} (may
    over-approximate, never misses a changed row); the [sssp_edited_*]
    probes evaluate a hypothetical one-edge edit without touching the
    maintained state; the drift sentinel cross-checks maintained values
    against an independent recompute and self-heals on mismatch.
    Implicit oracles are {e read-only}: their updates raise
    {!Unsupported}, and mutating dynamics must resolve to a dense
    backend (see {!Gncg.Net_state.create}). *)

exception Unsupported of string
(** Raised by [add_edge] / [remove_edge] on read-only (oracle)
    backends. *)

(** Operations every backend provides; see {!Incr_apsp} for the dense
    reference semantics. *)
module type S = sig
  type t

  val id : string
  val is_mutable : bool
  val n : t -> int

  val graph : t -> Wgraph.t option
  (** The tracked network graph, when the backend has one ([None] for
      the R^d oracle, whose network is implicitly complete). *)

  val distance : t -> int -> int -> float
  val row_into : t -> int -> float array -> unit
  val dist_sum : t -> int -> float
  val dist_sum_with_edge : t -> int -> int -> float -> float

  val dist_sums_with_edges : t -> int -> int array -> float array -> int -> float array -> unit
  (** [dist_sums_with_edges t u targets weights k out]: [out.(i)] is
      [dist_sum_with_edge t u targets.(i) weights.(i)] for [i < k], bit
      for bit.  Dense runs four targets per pass
      ({!Incr_apsp.dist_sums_with_edges}); the oracles loop over their
      single-target kernel. *)

  val min_sum_against : t -> float array -> int -> float -> float

  val nearest : t -> accept:(int -> bool) -> int -> (int * float) option
  (** Nearest other vertex passing [accept], for backends with a
      geometric index ([None] otherwise). *)

  val add_edge : t -> int -> int -> float -> Changed_rows.t
  val remove_edge : t -> int -> int -> Changed_rows.t

  val sssp_edited_into :
    t -> ?remove:int * int -> ?add:int * int * float -> int -> float array -> unit

  val sssp_edited_sum : t -> ?remove:int * int -> ?add:int * int * float -> int -> float
  val copy : t -> t
  val set_selfcheck : t -> int -> unit
  val selfcheck_cadence : t -> int
  val selfcheck_now : t -> bool
  val inject_cell_error : t -> int -> int -> float -> unit
  val memory_bytes : t -> int
end

type t = Packed : (module S with type t = 'a) * 'a -> t

(** {1 Constructors} *)

val of_incr : Incr_apsp.t -> t
val of_tree_dist : Tree_dist.t -> t
val of_rd_dist : Rd_dist.t -> t

val dense : Wgraph.t -> t
(** Wraps the graph (no copy) in the default dense engine. *)

val tree : Wgraph.t -> t
(** The graph must be a connected tree; it {e is} the network. *)

val rd : Pnorm.t -> float array array -> t
(** The network is implicitly complete on the point set. *)

val rd_flat : Pnorm.t -> flat:float array -> d:int -> t

(** {1 Dispatch} *)

val backend_id : t -> string
val is_mutable : t -> bool
val n : t -> int
val graph : t -> Wgraph.t option
val distance : t -> int -> int -> float
val row : t -> int -> float array
val row_into : t -> int -> float array -> unit
val matrix : t -> float array array
val dist_sum : t -> int -> float
val dist_sum_with_edge : t -> int -> int -> float -> float
val dist_sums_with_edges : t -> int -> int array -> float array -> int -> float array -> unit
val min_sum_against : t -> float array -> int -> float -> float
val nearest : t -> ?accept:(int -> bool) -> int -> (int * float) option
val add_edge : t -> int -> int -> float -> Changed_rows.t
val remove_edge : t -> int -> int -> Changed_rows.t

val sssp_edited :
  t -> ?remove:int * int -> ?add:int * int * float -> int -> float array

val sssp_edited_into :
  t -> ?remove:int * int -> ?add:int * int * float -> int -> float array -> unit

val sssp_edited_sum : t -> ?remove:int * int -> ?add:int * int * float -> int -> float
val copy : t -> t
val set_selfcheck : t -> int -> unit
val selfcheck_cadence : t -> int
val selfcheck_now : t -> bool
val inject_cell_error : t -> int -> int -> float -> unit
val memory_bytes : t -> int

(** {1 Backend selection} *)

type spec = Auto | Dense | Tree | Rd

val spec_to_string : spec -> string

val spec_of_string : string -> (spec, string) result
(** ["auto" | "dense" | "tree" | "rd"]. *)

val set_default_spec : spec -> unit
(** Process-wide default where no explicit spec is given — backs the
    CLI's [--dist-backend].  Set once at startup. *)

val default_spec : unit -> spec
