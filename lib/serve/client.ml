module P = Protocol
module Json = Gncg_runs.Json
module E = Gncg_util.Gncg_error

let ctx = "Serve.Client"

type t = {
  ic : in_channel;
  oc : out_channel;
  fd : Unix.file_descr option;
  mutable next_id : int;
  mutable closed : bool;
}

let of_channels ic oc = { ic; oc; fd = None; next_id = 1; closed = false }

let connect_unix ~path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Ok
      {
        ic = Unix.in_channel_of_descr fd;
        oc = Unix.out_channel_of_descr fd;
        fd = Some fd;
        next_id = 1;
        closed = false;
      }
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    E.failf ~context:ctx ~where:(E.File path) Io "cannot connect: %s"
      (Unix.error_message err)

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> (
      (try close_out t.oc with Sys_error _ -> ());
      try close_in t.ic with Sys_error _ -> ())
  end

let fresh_id t =
  let id = Printf.sprintf "c%d" t.next_id in
  t.next_id <- t.next_id + 1;
  id

let send t envelope =
  match
    output_string t.oc (Json.to_string (P.request_to_json envelope));
    output_char t.oc '\n';
    flush t.oc
  with
  | () -> Ok ()
  | exception (Sys_error _ | Unix.Unix_error _) ->
    E.fail ~context:ctx Io "connection lost while sending"

let read_response t =
  match input_line t.ic with
  | line -> P.response_of_line line
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
    E.fail ~context:ctx Io "connection closed by the daemon"

let ( let* ) = Result.bind

(* One request, one terminal line.  Events for other ids cannot occur —
   the connection is sequential — but skip them defensively rather than
   desynchronize. *)
let rpc t request =
  let id = fresh_id t in
  let* () = send t { P.id; request } in
  let rec await () =
    let* resp = read_response t in
    match resp with
    | P.Reply { id = rid; data } when rid = id -> Ok data
    | P.Refused { id = rid; error } when rid = id || rid = "" -> Error error
    | P.Event _ | P.Reply _ | P.Refused _ -> await ()
  in
  await ()

let lift_field r = Result.map_error (fun m -> E.v ~context:ctx Parse m) r

let ping t =
  let* data = rpc t P.Ping in
  lift_field (Result.bind (Json.member "uptime_s" data) Json.get_float)

let submit t job =
  let* data = rpc t (P.Submit job) in
  let* id = lift_field (Result.bind (Json.member "job" data) Json.get_string) in
  let* attached =
    lift_field (Result.bind (Json.member "attached" data) Json.get_bool)
  in
  Ok (id, attached)

let status t ?job () = rpc t (P.Status job)

let cancel t job =
  let* data = rpc t (P.Cancel job) in
  lift_field (Result.bind (Json.member "cancelled" data) Json.get_bool)

let fetch_csv t job =
  let* data = rpc t (P.Fetch job) in
  lift_field (Result.bind (Json.member "csv" data) Json.get_string)

let shutdown t = Result.map (fun _ -> ()) (rpc t P.Shutdown)

let watch t ?(since = 0) ?(trace = false) ~on_event job =
  let id = fresh_id t in
  let* () = send t { P.id; request = P.Watch { job; since; trace } } in
  let rec stream () =
    let* resp = read_response t in
    match resp with
    | P.Event { id = rid; event } when rid = id ->
      on_event event;
      if event.P.name = "done" then Ok event.P.data else stream ()
    | P.Refused { id = rid; error } when rid = id || rid = "" -> Error error
    | P.Event _ | P.Reply _ | P.Refused _ -> stream ()
  in
  stream ()
