(** Parameter sweeps driving the statistical experiments: run response
    dynamics to a stable state, compare against the best known optimum,
    and aggregate ratios across seeds. *)

type run = {
  model : string;
  n : int;
  alpha : float;
  seed : int;
  converged : bool;
  steps : int;
  stable_cost : float;
  opt_cost : float;
  ratio : float;  (** stable/opt (1 when both are 0); NaN when not converged *)
  diameter : float;
  stretch : float;  (** spanner stretch of the stable network *)
  is_tree : bool;
}

val dynamics_run :
  rule:Gncg.Dynamics.rule ->
  max_steps:int ->
  Instances.model ->
  n:int ->
  alpha:float ->
  seed:int ->
  run
(** One seeded dynamics run from a random profile under a
    [Random_order] scheduler split from the instance's generator; the
    optimum is [Social_optimum.best_known] (exact on small hosts).
    Sweeps reach it through [Gncg_runs.Job.execute], whose specs carry
    the default rule and step budget. *)

val cartesian :
  ns:int list -> alphas:float list -> seeds:int list -> (int * float * int) list
(** The batch grid in canonical order: [n]-major, then [alpha], then
    seed.  This order is a contract — the journal of the runs subsystem
    re-derives job lists from it on resume. *)

val ratios : run list -> float list
(** Ratios of the converged runs ([[]] on an empty batch). *)

val converged_fraction : run list -> float
(** Fraction of converged runs; [0.] — not NaN — on an empty batch. *)
