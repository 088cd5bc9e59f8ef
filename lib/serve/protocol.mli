(** The serve wire protocol: versioned, line-delimited JSON.

    Every message — request, reply, streamed event — is one JSON object
    on one line, rendered and parsed through {!Gncg_runs.Json} (the
    journal codec; the repository deliberately has no JSON dependency).
    Every message carries [{"v": 1}]; a server rejects versions it does
    not speak with a typed [Parse] error instead of guessing.

    Shapes (see docs/SERVE.md for the full spec and examples):

    {v
    request   {"v":1,"id":"c1","op":"submit","job":{...}}
    reply     {"v":1,"id":"c1","ok":true,"data":{...}}
    refusal   {"v":1,"id":"c1","ok":false,"error":{"kind":...,...}}
    event     {"v":1,"id":"c1","event":"job-result","seq":4,"data":{...}}
    v}

    Requests are matched to replies by the client-chosen [id] (opaque to
    the server, echoed verbatim).  A [watch] request produces a stream
    of [event] lines terminated by an event named ["done"]; every other
    request produces exactly one reply or refusal.  Refusals carry a
    {!Gncg_util.Gncg_error.t} in its wire encoding. *)

module Json = Gncg_runs.Json

val version : int
(** 1 — bumped only on incompatible changes. *)

(** {1 Jobs} *)

type job =
  | Sweep of {
      config : Gncg_runs.Job.grid;
      budget : float option;  (** per-job wall-clock budget, seconds *)
      retries : int option;  (** extra attempts for crashed jobs *)
    }
      (** A full journaled batch through {!Gncg_runs.Batch}: durable,
          resumable, streamed result-by-result to watchers. *)
  | Eq_check of {
      model : Gncg_workload.Instances.model;
      n : int;
      alpha : float;
      seed : int;
      check : Gncg.Equilibrium.kind;
      stabilize : bool;
          (** run greedy dynamics to a stable state first and check
              that; otherwise check the seeded random profile as is *)
    }
  | Best_response of {
      model : Gncg_workload.Instances.model;
      n : int;
      alpha : float;
      seed : int;
      agent : int;
    }  (** Exact and local best-response costs for one agent. *)

val job_kind_string : job -> string
(** ["sweep"] | ["eq-check"] | ["best-response"]. *)

val job_key : job -> string
(** 64-bit FNV-1a of the job's canonical one-line encoding (equal jobs,
    and only equal jobs, encode identically, up to float identity) as
    16 hex digits: the content hash the session manager dedups
    submissions and names sweep journals by. *)

val job_to_json : job -> Json.t
val job_of_json : Json.t -> (job, Gncg_util.Gncg_error.t) result
(** Out-of-range values are [Parse] errors: every [n] and [ns] entry must
    pass {!Gncg.Host.check_n}, every [alpha] and [alphas] entry
    {!Gncg.Host.check_alpha}, and a best-response [agent] must lie in
    [\[0, n)]. *)

val check_to_string : Gncg.Equilibrium.kind -> string
(** ["ne"] | ["ge"] | ["ae"]. *)

val check_of_string : string -> (Gncg.Equilibrium.kind, Gncg_util.Gncg_error.t) result

val content_hash : string -> string
(** {!Gncg_runs.Job.content_hash}: the 64-bit FNV-1a hex digest
    {!job_key} is built from, exposed for other content-addressed keys
    (the worker's host cache). *)

(** {1 Requests} *)

type request =
  | Ping
  | Submit of job
  | Status of string option  (** all jobs, or one job id *)
  | Watch of { job : string; since : int; trace : bool }
      (** stream events with [seq > since]; [trace] includes the
          ["obs"] events relayed from the observability sink *)
  | Cancel of string
  | Fetch of string  (** the completed sweep's runs as CSV *)
  | Shutdown  (** graceful drain: finish queued work, then stop *)

type envelope = { id : string; request : request }

val request_to_json : envelope -> Json.t
val request_of_line : string -> (envelope, Gncg_util.Gncg_error.t) result
(** [parse], then decode the envelope. *)

(** {1 Responses} *)

type event = { seq : int; name : string; data : Json.t }
(** [seq] is 1-based and strictly increasing per job; replaying a watch
    with [since] set to the last seen [seq] never duplicates events. *)

type response =
  | Reply of { id : string; data : Json.t }
  | Refused of { id : string; error : Gncg_util.Gncg_error.t }
  | Event of { id : string; event : event }

val response_to_json : response -> Json.t
val response_of_line : string -> (response, Gncg_util.Gncg_error.t) result

(** {1 The worker sub-protocol}

    Spoken between the {!Pool} supervisor and its worker processes over
    the workers' stdin/stdout: the same versioned line-JSON codec, in
    its own op namespace ([wop]).  Requests flow supervisor → worker;
    messages flow worker → supervisor.

    {v
    request   {"v":1,"wop":"run","rid":7,"attempt":1,"payload":"spec","spec":{...}}
    hello     {"v":1,"wop":"hello","pid":12345}
    heartbeat {"v":1,"wop":"heartbeat"}
    result    {"v":1,"wop":"result","rid":7,"status":"run","run":{...}}
    v} *)

module Worker_wire : sig
  type payload =
    | Spec of Gncg_runs.Job.spec
        (** one sweep point; the supervisor journals the classified
            result itself, so durability never depends on a worker *)
    | Query of job
        (** a whole query job ([Eq_check] / [Best_response]); the worker
            answers with the event payload the session would publish *)

  type req =
    | Run of { rid : int; attempt : int; payload : payload }
        (** [rid] matches results to dispatches; [attempt] is the
            supervisor-tracked per-key dispatch count, which the chaos
            fault oracle keys on so faults survive worker restarts *)
    | Quit

  type outcome =
    | Run_result of Gncg_workload.Sweep.run
    | Query_result of Json.t
    | Job_error of { msg : string; backtrace : string }
        (** the job raised inside the worker; message and frames are
            shipped back so the supervisor re-raises with the worker-side
            record ({!Gncg_runs.Scheduler.Crash_report}) *)

  type msg =
    | Hello of { pid : int }
    | Heartbeat
    | Result of { rid : int; outcome : outcome }

  val payload_key : payload -> string
  (** The content key faults and dedup are tracked by:
      {!Gncg_runs.Job.hash} for specs, {!job_key} for queries. *)

  val req_to_json : req -> Json.t
  val req_of_line : string -> (req, Gncg_util.Gncg_error.t) result
  val msg_to_json : msg -> Json.t
  val msg_of_line : string -> (msg, Gncg_util.Gncg_error.t) result
end

(** {1 Job states} *)

type job_state =
  | Queued
  | Running
  | Done
  | Failed of string  (** rendered {!Gncg_util.Gncg_error.t} *)
  | Cancelled

val job_state_string : job_state -> string
(** ["queued" | "running" | "done" | "failed" | "cancelled"]. *)

val terminal : job_state -> bool
(** [Done], [Failed _] and [Cancelled] are terminal: their event
    streams are closed and a watch on them drains and finishes. *)
