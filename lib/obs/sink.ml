type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  kind : string;
  name : string;
  t_ns : float;
  fields : (string * value) list;
}

type t = { emit : event -> unit; flush : unit -> unit }

let null = { emit = ignore; flush = ignore }

(* Minimal JSON rendering, compatible with the parser in lib/runs/json.ml:
   integers without a decimal point, non-finite floats as null (JSON has
   no NaN/infinity), strings with the mandatory escapes only. *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_into buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else Buffer.add_string buf (Printf.sprintf "%.17g" x)

let value_into buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> float_into buf x
  | Str s -> escape_into buf s
  | Bool b -> Buffer.add_string buf (string_of_bool b)

let event_to_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"kind\":";
  escape_into buf e.kind;
  Buffer.add_string buf ",\"name\":";
  escape_into buf e.name;
  Buffer.add_string buf ",\"t_ns\":";
  float_into buf e.t_ns;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      escape_into buf k;
      Buffer.add_char buf ':';
      value_into buf v)
    e.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let jsonl oc =
  let m = Mutex.create () in
  let emit e =
    let line = event_to_json e in
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        output_string oc line;
        output_char oc '\n')
  in
  { emit; flush = (fun () -> flush oc) }

let callback f =
  (* The contract says emit must never raise: the engine's probes fire
     from arbitrary internals, so a forwarding failure is swallowed. *)
  let emit e = try f e with _ -> () in
  { emit; flush = ignore }

let memory () =
  let m = Mutex.create () in
  let events = ref [] in
  let emit e =
    Mutex.lock m;
    events := e :: !events;
    Mutex.unlock m
  in
  ({ emit; flush = ignore }, fun () -> List.rev !events)

(* The installed sink.  [active_flag] is a plain ref deliberately: the
   hot paths read it without synchronization, and a stale read during an
   install/uninstall race merely drops or emits one borderline event —
   never corrupts state (the sink value itself is read once, after the
   flag). *)

let active_flag = ref false

let current = ref null

let install = function
  | None ->
    active_flag := false;
    current := null
  | Some s ->
    current := s;
    active_flag := true

let active () = !active_flag

let emit e = if !active_flag then !current.emit e

let flush () = !current.flush ()
