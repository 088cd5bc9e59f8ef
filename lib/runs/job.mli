(** Deterministic job specifications.

    A job is identified by {e what it computes}, not when it ran: the
    spec captures every input of a seeded dynamics run (model with all
    parameters, [n], [alpha], seed, response rule, step budget), and
    {!hash} is a stable content hash of the canonical
    encoding.  Two invocations — on different machines, in different
    batches, months apart — that would compute the same run have the
    same hash, which is what lets the journal resume a sweep by skipping
    already-journaled hashes. *)

type rule = Best_response | Greedy_response | Add_only
(** Serializable subset of {!Gncg.Dynamics.rule}: [Random_improving]
    carries live generator state and is deliberately excluded — a job
    must be reproducible from its spec alone. *)

type spec = {
  model : Gncg_workload.Instances.model;
  n : int;
  alpha : float;
  seed : int;
  rule : rule;
  max_steps : int;
}

val make :
  ?rule:rule ->
  ?max_steps:int ->
  Gncg_workload.Instances.model ->
  n:int ->
  alpha:float ->
  seed:int ->
  spec
(** Defaults mirror [Sweep.dynamics_run]: greedy rule, 5000 steps. *)

val dynamics_rule : rule -> Gncg.Dynamics.rule

val model_to_string : Gncg_workload.Instances.model -> string
(** Canonical, parseable model encoding, e.g. ["euclid(l2,2,100)"].
    Distinct from [Instances.model_name], which is a display label that
    drops parameters. *)

val model_of_string : string -> (Gncg_workload.Instances.model, string) result

val to_canonical : spec -> string
(** The canonical one-line encoding the hash is computed over.  Floats
    are rendered with round-trip precision, so equal specs — and only
    equal specs, up to float identity — encode identically.  It still
    carries the field [eval=incremental], a constant since dynamics
    lost their choice of evaluator: journal entries on disk are keyed
    by {!hash}, so the string keeps its old bytes.  A journal written
    with the old [--evaluator reference] has entries keyed
    [eval=reference]; a resume re-executes those jobs (with the same
    result rows). *)

val hash : spec -> string
(** 64-bit FNV-1a of {!to_canonical}, as 16 lowercase hex digits. *)

val to_json : spec -> Json.t
val of_json : Json.t -> (spec, string) result
(** Accepts and ignores an old ["evaluator"] field ({!legacy_evaluator}). *)

val legacy_evaluator : Json.t -> (unit, string) result
(** [Ok ()] when the object has no ["evaluator"] member, or has one with
    either value it could hold while dynamics had two evaluators
    (["reference"], ["incremental"]); the value is ignored.  Any other
    value is an error, as it always was.  Journal manifests, job specs
    and serve sweep requests written before the field was dropped read
    through it. *)

val execute : spec -> Gncg_workload.Sweep.run
(** Runs the job ([Sweep.dynamics_run] under the spec's parameters).
    Deterministic: the run is a function of the spec only. *)

val rule_to_string : rule -> string
val rule_of_string : string -> (rule, string) result
