(** The connection layer: protocol lines in, protocol lines out.

    Two transports share one request handler:

    - {!serve_stdio} speaks the protocol over a channel pair — one
      connection, one thread.  This is what tests and [gncg serve
      --stdio] use; it needs no socket and no signal handling.
    - {!serve_unix} listens on a Unix-domain socket and spawns one
      thread per accepted connection, so a watch blocking one client
      never stalls another.  The accept loop polls a stop flag (set by
      a [shutdown] request from any connection, or by SIGTERM) and
      returns once every connection thread has finished.

    Either transport ends with the session drained: queued jobs run to
    completion, sweep journals are flushed, and a subsequent daemon
    started on the same state directory resumes rather than recomputes. *)

val serve_stdio : Session.t -> in_channel -> out_channel -> unit
(** Reads one request per line until EOF or [shutdown]; malformed lines
    are answered with a [Refused] carrying an empty id.  Drains the
    session before returning, whatever ended the loop. *)

val serve_unix : ?backlog:int -> Session.t -> path:string -> unit
(** Binds [path] (removing a stale socket file first), accepts in a
    loop, one thread per connection.  Returns after a [shutdown]
    request or SIGTERM, with the session drained, all connection
    threads joined and the socket file removed. *)
