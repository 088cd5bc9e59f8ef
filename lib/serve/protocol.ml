module Json = Gncg_runs.Json
module Job = Gncg_runs.Job
module E = Gncg_util.Gncg_error

let version = 1

let ctx = "Serve.Protocol"

(* Json accessor results carry bare strings; lift them into the typed
   error the wire refusals are built from. *)
let lift r = Result.map_error (fun m -> E.v ~context:ctx Parse m) r

let ( let* ) = Result.bind

let mem k j = lift (Json.member k j)
let str j = lift (Json.get_string j)
let int j = lift (Json.get_int j)
let flt j = lift (Json.get_float j)
let bol j = lift (Json.get_bool j)
let lst j = lift (Json.get_list j)

let mem_opt k j = match Json.member k j with Ok v -> Some v | Error _ -> None

let perr fmt = E.failf ~context:ctx Parse fmt

(* --- jobs -------------------------------------------------------------- *)

type job =
  | Sweep of {
      config : Gncg_runs.Batch.config;
      budget : float option;
      retries : int option;
    }
  | Eq_check of {
      model : Gncg_workload.Instances.model;
      n : int;
      alpha : float;
      seed : int;
      check : Gncg.Equilibrium.kind;
      stabilize : bool;
    }
  | Best_response of {
      model : Gncg_workload.Instances.model;
      n : int;
      alpha : float;
      seed : int;
      agent : int;
    }

let job_kind_string = function
  | Sweep _ -> "sweep"
  | Eq_check _ -> "eq-check"
  | Best_response _ -> "best-response"

let check_to_string = function
  | Gncg.Equilibrium.NE -> "ne"
  | Gncg.Equilibrium.GE -> "ge"
  | Gncg.Equilibrium.AE -> "ae"

let check_of_string = function
  | "ne" -> Ok Gncg.Equilibrium.NE
  | "ge" -> Ok Gncg.Equilibrium.GE
  | "ae" -> Ok Gncg.Equilibrium.AE
  | s -> perr "unknown equilibrium kind %S (ne | ge | ae)" s

let num_list f xs = Json.List (List.map f xs)

let job_to_json job =
  match job with
  | Sweep { config = c; budget; retries } ->
    Json.Obj
      [
        ("kind", Json.Str "sweep");
        ("model", Json.Str (Job.model_to_string c.model));
        ("ns", num_list Json.num_int c.ns);
        ("alphas", num_list (fun a -> Json.Num a) c.alphas);
        ("seeds", num_list Json.num_int c.seeds);
        ("rule", Json.Str (Job.rule_to_string c.rule));
        (* A constant since dynamics lost their choice of evaluator:
           this rendering is hashed into the job key that names
           [sweep-<key>.jsonl] journals on disk, so it keeps its bytes. *)
        ("evaluator", Json.Str "incremental");
        ("max_steps", Json.num_int c.max_steps);
        ("budget", (match budget with Some b -> Json.Num b | None -> Json.Null));
        ("retries", (match retries with Some r -> Json.num_int r | None -> Json.Null));
      ]
  | Eq_check { model; n; alpha; seed; check; stabilize } ->
    Json.Obj
      [
        ("kind", Json.Str "eq-check");
        ("model", Json.Str (Job.model_to_string model));
        ("n", Json.num_int n);
        ("alpha", Json.Num alpha);
        ("seed", Json.num_int seed);
        ("check", Json.Str (check_to_string check));
        ("stabilize", Json.Bool stabilize);
      ]
  | Best_response { model; n; alpha; seed; agent } ->
    Json.Obj
      [
        ("kind", Json.Str "best-response");
        ("model", Json.Str (Job.model_to_string model));
        ("n", Json.num_int n);
        ("alpha", Json.Num alpha);
        ("seed", Json.num_int seed);
        ("agent", Json.num_int agent);
      ]

let model_field j =
  let* s = Result.bind (mem "model" j) str in
  Result.map_error (fun m -> E.v ~context:ctx Parse m) (Job.model_of_string s)

let int_list j =
  let* items = lst j in
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* i = int item in
      Ok (i :: acc))
    (Ok []) items
  |> Result.map List.rev

let float_list j =
  let* items = lst j in
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* x = flt item in
      Ok (x :: acc))
    (Ok []) items
  |> Result.map List.rev

(* The engine's own range rules, as typed parse errors. *)
let all_ok check xs =
  List.fold_left
    (fun acc x -> Result.bind acc (fun () -> Result.map ignore (lift (check x))))
    (Ok ()) xs

let n_alpha j =
  let* n = Result.bind (mem "n" j) int in
  let* n = lift (Gncg.Host.check_n n) in
  let* alpha = Result.bind (mem "alpha" j) flt in
  let* alpha = lift (Gncg.Host.check_alpha alpha) in
  Ok (n, alpha)

let job_of_json j =
  let* kind = Result.bind (mem "kind" j) str in
  match kind with
  | "sweep" ->
    let* model = model_field j in
    let* ns = Result.bind (mem "ns" j) int_list in
    let* () = all_ok Gncg.Host.check_n ns in
    let* alphas = Result.bind (mem "alphas" j) float_list in
    let* () = all_ok Gncg.Host.check_alpha alphas in
    let* seeds = Result.bind (mem "seeds" j) int_list in
    let* rule =
      match mem_opt "rule" j with
      | None -> Ok Job.Greedy_response
      | Some v ->
        let* s = str v in
        Result.map_error (fun m -> E.v ~context:ctx Parse m) (Job.rule_of_string s)
    in
    let* () = lift (Job.legacy_evaluator j) in
    let* max_steps =
      match mem_opt "max_steps" j with
      | None -> Ok 5000
      | Some v ->
        let* m = int v in
        if m >= 1 then Ok m else perr "max_steps must be positive (got %d)" m
    in
    let* budget =
      match mem_opt "budget" j with
      | None | Some Json.Null -> Ok None
      | Some v ->
        let* b = flt v in
        if Float.is_nan b then Ok None
        else if b > 0.0 then Ok (Some b)
        else perr "budget must be positive"
    in
    let* retries =
      match mem_opt "retries" j with
      | None | Some Json.Null -> Ok None
      | Some v ->
        let* r = int v in
        if r >= 0 then Ok (Some r) else perr "retries must be non-negative"
    in
    if ns = [] || alphas = [] || seeds = [] then perr "empty sweep grid"
    else
      Ok
        (Sweep
           {
             config =
               { Gncg_runs.Batch.model; ns; alphas; seeds; rule; max_steps };
             budget;
             retries;
           })
  | "eq-check" ->
    let* model = model_field j in
    let* n, alpha = n_alpha j in
    let* seed = Result.bind (mem "seed" j) int in
    let* check = Result.bind (Result.bind (mem "check" j) str) check_of_string in
    let* stabilize =
      match mem_opt "stabilize" j with None -> Ok false | Some v -> bol v
    in
    Ok (Eq_check { model; n; alpha; seed; check; stabilize })
  | "best-response" ->
    let* model = model_field j in
    let* n, alpha = n_alpha j in
    let* seed = Result.bind (mem "seed" j) int in
    let* agent = Result.bind (mem "agent" j) int in
    if agent < 0 || agent >= n then perr "agent %d out of range [0, %d)" agent n
    else Ok (Best_response { model; n; alpha; seed; agent })
  | k -> perr "unknown job kind %S (sweep | eq-check | best-response)" k

(* Field order in [job_to_json] is fixed, so the rendering doubles as
   the canonical encoding the content key hashes. *)
let job_canonical job = Json.to_string (job_to_json job)

let fnv1a64 s =
  let prime = 0x100000001b3L and basis = 0xcbf29ce484222325L in
  let h = ref basis in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  Printf.sprintf "%016Lx" !h

let content_hash = fnv1a64

let job_key job = fnv1a64 (job_canonical job)

(* --- requests ---------------------------------------------------------- *)

type request =
  | Ping
  | Submit of job
  | Status of string option
  | Watch of { job : string; since : int; trace : bool }
  | Cancel of string
  | Fetch of string
  | Shutdown

type envelope = { id : string; request : request }

let versioned fields = Json.Obj (("v", Json.num_int version) :: fields)

let request_to_json { id; request } =
  let base op extra = versioned (("id", Json.Str id) :: ("op", Json.Str op) :: extra) in
  match request with
  | Ping -> base "ping" []
  | Submit job -> base "submit" [ ("job", job_to_json job) ]
  | Status None -> base "status" []
  | Status (Some j) -> base "status" [ ("job", Json.Str j) ]
  | Watch { job; since; trace } ->
    base "watch"
      [ ("job", Json.Str job); ("since", Json.num_int since); ("trace", Json.Bool trace) ]
  | Cancel j -> base "cancel" [ ("job", Json.Str j) ]
  | Fetch j -> base "fetch" [ ("job", Json.Str j) ]
  | Shutdown -> base "shutdown" []

let check_version j =
  let* v = Result.bind (mem "v" j) int in
  if v = version then Ok ()
  else perr "unsupported protocol version %d (this end speaks %d)" v version

let job_ref j = Result.bind (mem "job" j) str

let request_of_json j =
  let* () = check_version j in
  let* id = Result.bind (mem "id" j) str in
  let* op = Result.bind (mem "op" j) str in
  let* request =
    match op with
    | "ping" -> Ok Ping
    | "submit" -> Result.map (fun job -> Submit job) (Result.bind (mem "job" j) job_of_json)
    | "status" -> (
      match mem_opt "job" j with
      | None -> Ok (Status None)
      | Some v -> Result.map (fun s -> Status (Some s)) (str v))
    | "watch" ->
      let* job = job_ref j in
      let* since = match mem_opt "since" j with None -> Ok 0 | Some v -> int v in
      let* trace = match mem_opt "trace" j with None -> Ok false | Some v -> bol v in
      Ok (Watch { job; since; trace })
    | "cancel" -> Result.map (fun s -> Cancel s) (job_ref j)
    | "fetch" -> Result.map (fun s -> Fetch s) (job_ref j)
    | "shutdown" -> Ok Shutdown
    | op -> perr "unknown op %S" op
  in
  Ok { id; request }

let request_of_line line =
  let* j = lift (Json.parse line) in
  request_of_json j

(* --- responses --------------------------------------------------------- *)

type event = { seq : int; name : string; data : Json.t }

type response =
  | Reply of { id : string; data : Json.t }
  | Refused of { id : string; error : E.t }
  | Event of { id : string; event : event }

let response_to_json = function
  | Reply { id; data } ->
    versioned [ ("id", Json.Str id); ("ok", Json.Bool true); ("data", data) ]
  | Refused { id; error } ->
    versioned
      [
        ("id", Json.Str id);
        ("ok", Json.Bool false);
        ("error", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (E.to_wire error)));
      ]
  | Event { id; event } ->
    versioned
      [
        ("id", Json.Str id);
        ("event", Json.Str event.name);
        ("seq", Json.num_int event.seq);
        ("data", event.data);
      ]

let error_of_json j =
  let* fields =
    match j with
    | Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* s = str v in
          Ok ((k, s) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
    | _ -> perr "error payload must be an object"
  in
  Result.map_error (fun m -> E.v ~context:ctx Parse m) (E.of_wire fields)

let response_of_json j =
  let* () = check_version j in
  let* id = Result.bind (mem "id" j) str in
  match mem_opt "event" j with
  | Some name_v ->
    let* name = str name_v in
    let* seq = Result.bind (mem "seq" j) int in
    let* data = mem "data" j in
    Ok (Event { id; event = { seq; name; data } })
  | None -> (
    let* ok = Result.bind (mem "ok" j) bol in
    if ok then
      let* data = mem "data" j in
      Ok (Reply { id; data })
    else
      let* error = Result.bind (mem "error" j) error_of_json in
      Ok (Refused { id; error }))

let response_of_line line =
  let* j = lift (Json.parse line) in
  response_of_json j

(* --- the worker sub-protocol -------------------------------------------- *)

(* Spoken between the pool supervisor and its forked worker processes
   over the workers' stdin/stdout: same versioned line-JSON codec, its
   own op namespace ("wop") so a worker line can never be mistaken for a
   client line. *)
module Worker_wire = struct
  type payload =
    | Spec of Job.spec
    | Query of job

  type req =
    | Run of { rid : int; attempt : int; payload : payload }
    | Quit

  type outcome =
    | Run_result of Gncg_workload.Sweep.run
    | Query_result of Json.t
    | Job_error of { msg : string; backtrace : string }

  type msg =
    | Hello of { pid : int }
    | Heartbeat
    | Result of { rid : int; outcome : outcome }

  let payload_key = function
    | Spec s -> Job.hash s
    | Query j -> job_key j

  let req_to_json = function
    | Run { rid; attempt; payload } ->
      let p =
        match payload with
        | Spec s -> [ ("payload", Json.Str "spec"); ("spec", Job.to_json s) ]
        | Query j -> [ ("payload", Json.Str "job"); ("job", job_to_json j) ]
      in
      versioned
        (("wop", Json.Str "run")
        :: ("rid", Json.num_int rid)
        :: ("attempt", Json.num_int attempt)
        :: p)
    | Quit -> versioned [ ("wop", Json.Str "quit") ]

  let req_of_json j =
    let* () = check_version j in
    let* wop = Result.bind (mem "wop" j) str in
    match wop with
    | "run" ->
      let* rid = Result.bind (mem "rid" j) int in
      let* attempt = Result.bind (mem "attempt" j) int in
      let* payload =
        let* kind = Result.bind (mem "payload" j) str in
        match kind with
        | "spec" ->
          let* sj = mem "spec" j in
          Result.map
            (fun s -> Spec s)
            (Result.map_error (fun m -> E.v ~context:ctx Parse m) (Job.of_json sj))
        | "job" -> Result.map (fun jb -> Query jb) (Result.bind (mem "job" j) job_of_json)
        | k -> perr "unknown worker payload kind %S (spec | job)" k
      in
      Ok (Run { rid; attempt; payload })
    | "quit" -> Ok Quit
    | op -> perr "unknown worker op %S" op

  let req_of_line line =
    let* j = lift (Json.parse line) in
    req_of_json j

  let msg_to_json = function
    | Hello { pid } -> versioned [ ("wop", Json.Str "hello"); ("pid", Json.num_int pid) ]
    | Heartbeat -> versioned [ ("wop", Json.Str "heartbeat") ]
    | Result { rid; outcome } ->
      let o =
        match outcome with
        | Run_result r ->
          [ ("status", Json.Str "run"); ("run", Gncg_runs.Journal.run_to_json r) ]
        | Query_result d -> [ ("status", Json.Str "data"); ("data", d) ]
        | Job_error { msg; backtrace } ->
          [
            ("status", Json.Str "error");
            ("msg", Json.Str msg);
            ("backtrace", Json.Str backtrace);
          ]
      in
      versioned (("wop", Json.Str "result") :: ("rid", Json.num_int rid) :: o)

  let msg_of_json j =
    let* () = check_version j in
    let* wop = Result.bind (mem "wop" j) str in
    match wop with
    | "hello" ->
      let* pid = Result.bind (mem "pid" j) int in
      Ok (Hello { pid })
    | "heartbeat" -> Ok Heartbeat
    | "result" ->
      let* rid = Result.bind (mem "rid" j) int in
      let* status = Result.bind (mem "status" j) str in
      let* outcome =
        match status with
        | "run" ->
          let* rj = mem "run" j in
          Result.map
            (fun r -> Run_result r)
            (Result.map_error
               (fun m -> E.v ~context:ctx Parse m)
               (Gncg_runs.Journal.run_of_json rj))
        | "data" -> Result.map (fun d -> Query_result d) (mem "data" j)
        | "error" ->
          let* msg = Result.bind (mem "msg" j) str in
          let* backtrace = Result.bind (mem "backtrace" j) str in
          Ok (Job_error { msg; backtrace })
        | s -> perr "unknown worker result status %S (run | data | error)" s
      in
      Ok (Result { rid; outcome })
    | op -> perr "unknown worker message %S" op

  let msg_of_line line =
    let* j = lift (Json.parse line) in
    msg_of_json j
end

(* --- job states -------------------------------------------------------- *)

type job_state = Queued | Running | Done | Failed of string | Cancelled

let job_state_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

let terminal = function
  | Done | Failed _ | Cancelled -> true
  | Queued | Running -> false
