(** A blocking protocol client: one connection, sequential requests.

    Thin by design — it frames lines, matches replies to request ids,
    and decodes refusals back into {!Gncg_util.Gncg_error.t}.  Anything
    concurrent (the bench's eight parallel clients, the CLI's watch)
    opens one client per thread; a single client must not be shared
    across threads. *)

type t

val connect_unix : path:string -> (t, Gncg_util.Gncg_error.t) result
(** Connects to the daemon's socket.  [Io] when nothing listens. *)

val of_channels : in_channel -> out_channel -> t
(** Wraps an existing channel pair (tests drive {!Server.serve_stdio}
    through a pipe this way). *)

val close : t -> unit

(** {1 Requests}

    Each call sends one request and blocks for its terminal response.
    Server refusals and transport failures both surface as [Error _]. *)

val ping : t -> (float, Gncg_util.Gncg_error.t) result
(** Round-trips; returns the daemon's uptime in seconds. *)

val submit : t -> Protocol.job -> (string * bool, Gncg_util.Gncg_error.t) result
(** Job id and whether the submission attached to an existing job. *)

val status : t -> ?job:string -> unit -> (Protocol.Json.t, Gncg_util.Gncg_error.t) result

val cancel : t -> string -> (bool, Gncg_util.Gncg_error.t) result

val fetch_csv : t -> string -> (string, Gncg_util.Gncg_error.t) result

val watch :
  t ->
  ?since:int ->
  ?trace:bool ->
  on_event:(Protocol.event -> unit) ->
  string ->
  (Protocol.Json.t, Gncg_util.Gncg_error.t) result
(** Streams the job's events through [on_event] (the terminating
    ["done"] event included) and returns the ["done"] payload, e.g.
    [{"state":"done"}].  Blocks until the job is terminal. *)

val shutdown : t -> (unit, Gncg_util.Gncg_error.t) result
(** Graceful drain: returns once the daemon has run its queue dry and
    acknowledged. *)
