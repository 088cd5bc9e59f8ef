(** Append-only JSONL journal of sweep results.

    Line 1 is the manifest: the schema version, the job count and the
    generating {!Job.grid}, so [resume] can re-derive the job list from
    the journal alone ({!Job.jobs}).  The schema version and job count
    are written and checked on reload; only the grid is kept.  Every
    subsequent line is one finished job: its content hash,
    classification, attempt count, elapsed seconds and — for
    [Completed]/[Diverged] — the run record.

    Appends are atomic at line granularity: each entry is rendered to a
    single buffer and written with one [output_string] + flush on a file
    opened in append mode, so a crash mid-write can only truncate the
    {e final} line.  Reload is corruption tolerant accordingly: an
    unparseable trailing line is dropped (counted, not fatal), so a
    journal killed at run 900/1000 resumes with at worst one run lost. *)

type status =
  | Completed
  | Diverged
  | Timeout
  | Crashed of string

type entry = {
  job : string;  (** content hash ({!Job.hash}) *)
  status : status;
  attempts : int;
  elapsed : float;
  result : Gncg_workload.Sweep.run option;
      (** present iff [Completed] or [Diverged] *)
}

type t
(** An open journal (append handle). *)

val create : string -> Job.grid -> t
(** Creates/truncates the file and writes the manifest line. *)

val append : t -> entry -> unit
val close : t -> unit

type loaded = {
  manifest : Job.grid;  (** the grid of the manifest line *)
  entries : entry list;  (** journal order *)
  dropped : int;  (** unparseable lines skipped during reload *)
}

val load : string -> (loaded, string) result
(** Read-only reload.  Fails only when the file is missing/unreadable or
    the manifest line itself is unusable: unparseable, another schema
    version, or a job count its grid does not give. *)

val append_to : string -> (t * loaded, string) result
(** {!load} followed by reopening the file for appending — the resume
    path. *)

val terminal : entry list -> (string, entry) Hashtbl.t
(** Latest [Completed]/[Diverged] entry per job hash: the jobs a resume
    skips.  [Timeout] and [Crashed] entries are {e not} terminal — a
    resume retries them (e.g. with a larger [--budget]). *)

val run_to_json : Gncg_workload.Sweep.run -> Json.t
val run_of_json : Json.t -> (Gncg_workload.Sweep.run, string) result
val entry_to_string : entry -> string
(** The exact line {!append} writes (without the newline). *)
