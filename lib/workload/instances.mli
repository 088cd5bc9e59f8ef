(** Random game instances per model class (Fig. 1), for the statistical
    experiments and property tests. *)

type model =
  | One_two of { p_one : float }
  | Tree of { wmin : float; wmax : float }
  | Euclid of { norm : Gncg_metric.Euclidean.norm; d : int; box : float }
  | Graph_metric of { p : float; wmin : float; wmax : float }
  | General of { lo : float; hi : float }
  | One_inf of { p : float }

val model_name : model -> string

val default_models : model list
(** One representative of each class. *)

val named_models : (string * model) list
(** The models a command line offers under [--model], by name, with
    their parameters. *)

val random_metric : Gncg_util.Prng.t -> model -> n:int -> Gncg_metric.Metric.t

val validate_host : model -> Gncg.Host.t -> (unit, Gncg_util.Gncg_error.t) result
(** {!Gncg.Host.validate} with the profile that fits the model family:
    exact triangle checks for 1-2 weights, [Flt]-tolerant for the
    closure/point-set metrics, weights-only for the non-metric general
    and 1-∞ families. *)

val random_host : Gncg_util.Prng.t -> model -> n:int -> alpha:float -> Gncg.Host.t
(** A host of the model's family.  Parameters outside the range that
    [Gncg_runs.Job.model_of_string] admits may raise
    [Invalid_argument]. *)

val random_profile : Gncg_util.Prng.t -> Gncg.Host.t -> Gncg.Strategy.t
(** Random connected profile (spanning tree + extra purchases). *)
