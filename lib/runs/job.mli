(** Deterministic job specifications.

    A job is identified by {e what it computes}, not when it ran: the
    spec captures every input of a seeded dynamics run (model with all
    parameters, [n], [alpha], seed, response rule, cost evaluator, step
    budget), and {!hash} is a stable content hash of the canonical
    encoding.  Two invocations — on different machines, in different
    batches, months apart — that would compute the same run have the
    same hash, which is what lets the journal resume a sweep by skipping
    already-journaled hashes. *)

type rule = Best_response | Greedy_response | Add_only
(** Serializable subset of {!Gncg.Dynamics.rule}: [Random_improving]
    carries live generator state and is deliberately excluded — a job
    must be reproducible from its spec alone. *)

type evaluator = Gncg.Evaluator.t
(** = [[ `Reference | `Incremental ]]; the shared engine type. *)

type spec = {
  model : Gncg_workload.Instances.model;
  n : int;
  alpha : float;
  seed : int;
  rule : rule;
  evaluator : evaluator;
  max_steps : int;
}

val make :
  ?rule:rule ->
  ?evaluator:evaluator ->
  ?max_steps:int ->
  Gncg_workload.Instances.model ->
  n:int ->
  alpha:float ->
  seed:int ->
  spec
(** Defaults mirror [Sweep.dynamics_run]: greedy rule, incremental
    evaluator, 5000 steps. *)

val dynamics_rule : rule -> Gncg.Dynamics.rule

val model_to_string : Gncg_workload.Instances.model -> string
(** Canonical, parseable model encoding, e.g. ["euclid(l2,2,100)"].
    Distinct from [Instances.model_name], which is a display label that
    drops parameters. *)

val model_of_string : string -> (Gncg_workload.Instances.model, string) result

val to_canonical : spec -> string
(** The canonical one-line encoding the hash is computed over.  Floats
    are rendered with round-trip precision, so equal specs — and only
    equal specs, up to float identity — encode identically. *)

val of_canonical : string -> (spec, string) result

val hash : spec -> string
(** 64-bit FNV-1a of {!to_canonical}, as 16 lowercase hex digits. *)

val to_json : spec -> Json.t
val of_json : Json.t -> (spec, string) result

val execute : spec -> Gncg_workload.Sweep.run
(** Runs the job ([Sweep.dynamics_run] under the spec's parameters).
    Deterministic: the run is a function of the spec only. *)

val rule_to_string : rule -> string
val rule_of_string : string -> (rule, string) result
val evaluator_to_string : evaluator -> string
val evaluator_of_string : string -> (evaluator, string) result
