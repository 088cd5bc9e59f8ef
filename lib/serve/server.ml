module P = Protocol
module Json = Gncg_runs.Json
module E = Gncg_util.Gncg_error
module Metric = Gncg_obs.Metric
module Span = Gncg_obs.Span

let ctx = "Serve.Server"

let c_connections = Metric.Counter.make "serve.connections"
let c_requests = Metric.Counter.make "serve.requests"
let c_protocol_errors = Metric.Counter.make "serve.protocol_errors"

let op_string = function
  | P.Ping -> "ping"
  | P.Submit _ -> "submit"
  | P.Status _ -> "status"
  | P.Watch _ -> "watch"
  | P.Cancel _ -> "cancel"
  | P.Fetch _ -> "fetch"
  | P.Shutdown -> "shutdown"

let reply id data = P.Reply { id; data }
let refused id error = P.Refused { id; error }

let watch session ~id ~job ~since ~trace emit =
  let rec loop since =
    match Session.events_after session ~job ~since with
    | Error e -> emit (refused id e)
    | Ok (events, terminal) ->
      let last =
        List.fold_left
          (fun _last (e : P.event) ->
            if trace || e.name <> "obs" then emit (P.Event { id; event = e });
            e.seq)
          since events
      in
      if terminal then begin
        let state =
          match Session.job_state session job with
          | Ok s -> P.job_state_string s
          | Error _ -> "unknown"
        in
        emit
          (P.Event
             {
               id;
               event =
                 {
                   P.seq = last;
                   name = "done";
                   data = Json.Obj [ ("state", Json.Str state) ];
                 };
             })
      end
      else loop last
  in
  loop since

(* One request: zero or more [Event]s, then exactly one terminal line
   ([Reply] or [Refused]) through [emit]; a [Watch] stream ends with an
   event named "done" instead of a reply.  [Shutdown] drains the
   session, replies, then calls [stop].  Never raises: handler failures
   become [Refused]. *)
let handle session ~stop { P.id; request } emit =
  Metric.Counter.incr c_requests;
  Span.with_
    ~fields:(fun () -> [ ("op", Gncg_obs.Sink.Str (op_string request)) ])
    "serve.request"
    (fun () ->
      let of_result = function
        | Ok data -> emit (reply id data)
        | Error e -> emit (refused id e)
      in
      match request with
      | P.Ping ->
        emit
          (reply id
             (Json.Obj
                [
                  ("pong", Json.Bool true);
                  ("version", Json.num_int P.version);
                  ("uptime_s", Json.Num (Session.uptime session));
                ]))
      | P.Submit job ->
        of_result
          (Result.map
             (fun { Session.job_id; attached } ->
               Json.Obj
                 [ ("job", Json.Str job_id); ("attached", Json.Bool attached) ])
             (Session.submit session job))
      | P.Status which -> of_result (Session.status_json session which)
      | P.Watch { job; since; trace } -> watch session ~id ~job ~since ~trace emit
      | P.Cancel job ->
        of_result
          (Result.map
             (fun cancelled -> Json.Obj [ ("cancelled", Json.Bool cancelled) ])
             (Session.cancel session job))
      | P.Fetch job ->
        of_result
          (Result.map
             (fun csv -> Json.Obj [ ("csv", Json.Str csv) ])
             (Session.fetch_csv session job))
      | P.Shutdown ->
        (* Drain first so the reply doubles as "all queued work is
           durable": once the client reads it, killing the process
           loses nothing. *)
        Session.drain session;
        emit (reply id (Json.Obj [ ("stopping", Json.Bool true) ]));
        stop ())

let handle_line session ~stop line emit =
  match P.request_of_line line with
  | Ok envelope -> handle session ~stop envelope emit
  | Error e ->
    Metric.Counter.incr c_protocol_errors;
    emit (refused "" e)

(* --- stdio transport --------------------------------------------------- *)

let emit_to oc response =
  output_string oc (Json.to_string (P.response_to_json response));
  output_char oc '\n';
  flush oc

let serve_stdio session ic oc =
  let stopped = ref false in
  let stop () = stopped := true in
  (try
     while not !stopped do
       match input_line ic with
       | line -> if String.trim line <> "" then handle_line session ~stop line (emit_to oc)
       | exception End_of_file -> stopped := true
     done
   with Sys_error _ -> ());
  Session.drain session

(* --- unix-domain socket transport -------------------------------------- *)

let connection session ~stop_flag fd =
  Metric.Counter.incr c_connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let stop () = Atomic.set stop_flag true in
  let stopped = ref false in
  (try
     while (not !stopped) && not (Atomic.get stop_flag) do
       match input_line ic with
       | line ->
         if String.trim line <> "" then handle_line session ~stop line (emit_to oc)
       | exception End_of_file -> stopped := true
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve_unix ?(backlog = 16) session ~path =
  (* A write to a client that vanished mid-watch must surface as an
     EPIPE error on that connection's thread, not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop_flag = Atomic.make false in
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true))
   with Invalid_argument _ -> ());
  if Sys.file_exists path then Unix.unlink path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX path);
     Unix.listen listen_fd backlog
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise
       (E.Error
          (E.v ~context:ctx ~where:(E.File path) Io
             (Printf.sprintf "cannot listen: %s" (Printexc.to_string e)))));
  let threads = ref [] in
  let threads_mutex = Mutex.create () in
  while not (Atomic.get stop_flag) do
    (* Poll so a shutdown requested on an existing connection (or a
       SIGTERM) is noticed without waiting for one more client. *)
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept listen_fd with
      | fd, _ ->
        let t = Thread.create (fun () -> connection session ~stop_flag fd) () in
        Mutex.lock threads_mutex;
        threads := t :: !threads;
        Mutex.unlock threads_mutex
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Mutex.lock threads_mutex;
  let ts = !threads in
  Mutex.unlock threads_mutex;
  List.iter Thread.join ts;
  Session.drain session;
  try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
