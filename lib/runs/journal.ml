module Sweep = Gncg_workload.Sweep

type status =
  | Completed
  | Diverged
  | Timeout
  | Crashed of string

type entry = {
  job : string;
  status : status;
  attempts : int;
  elapsed : float;
  result : Sweep.run option;
}

type manifest = {
  schema : int;
  model : string;
  ns : int list;
  alphas : float list;
  seeds : int list;
  rule : Job.rule;
  max_steps : int;
  jobs : int;
}

let schema_version = 1

let ( let* ) = Result.bind

let manifest_jobs m =
  let* model = Job.model_of_string m.model in
  Ok
    (List.map
       (fun (n, alpha, seed) ->
         Job.make ~rule:m.rule ~max_steps:m.max_steps model ~n ~alpha ~seed)
       (Sweep.cartesian ~ns:m.ns ~alphas:m.alphas ~seeds:m.seeds))

(* --- run record <-> JSON ------------------------------------------------ *)

let run_to_json (r : Sweep.run) =
  Json.Obj
    [
      ("model", Json.Str r.model);
      ("n", Json.num_int r.n);
      ("alpha", Json.Num r.alpha);
      ("seed", Json.num_int r.seed);
      ("converged", Json.Bool r.converged);
      ("steps", Json.num_int r.steps);
      ("stable_cost", Json.Num r.stable_cost);
      ("opt_cost", Json.Num r.opt_cost);
      ("ratio", Json.Num r.ratio);
      ("diameter", Json.Num r.diameter);
      ("stretch", Json.Num r.stretch);
      ("is_tree", Json.Bool r.is_tree);
    ]

let run_of_json v =
  let str k = Result.bind (Json.member k v) Json.get_string in
  let int k = Result.bind (Json.member k v) Json.get_int in
  let flt k = Result.bind (Json.member k v) Json.get_float in
  let bool k = Result.bind (Json.member k v) Json.get_bool in
  let* model = str "model" in
  let* n = int "n" in
  let* alpha = flt "alpha" in
  let* seed = int "seed" in
  let* converged = bool "converged" in
  let* steps = int "steps" in
  let* stable_cost = flt "stable_cost" in
  let* opt_cost = flt "opt_cost" in
  let* ratio = flt "ratio" in
  let* diameter = flt "diameter" in
  let* stretch = flt "stretch" in
  let* is_tree = bool "is_tree" in
  Ok
    {
      Sweep.model;
      n;
      alpha;
      seed;
      converged;
      steps;
      stable_cost;
      opt_cost;
      ratio;
      diameter;
      stretch;
      is_tree;
    }

(* --- entries ------------------------------------------------------------ *)

let status_fields = function
  | Completed -> [ ("status", Json.Str "completed") ]
  | Diverged -> [ ("status", Json.Str "diverged") ]
  | Timeout -> [ ("status", Json.Str "timeout") ]
  | Crashed msg -> [ ("status", Json.Str "crashed"); ("error", Json.Str msg) ]

let entry_to_json e =
  Json.Obj
    ([ ("job", Json.Str e.job) ]
    @ status_fields e.status
    @ [ ("attempts", Json.num_int e.attempts); ("elapsed", Json.Num e.elapsed) ]
    @ match e.result with None -> [] | Some r -> [ ("result", run_to_json r) ])

let entry_to_string e = Json.to_string (entry_to_json e)

let entry_of_json v =
  let* job = Result.bind (Json.member "job" v) Json.get_string in
  let* status_s = Result.bind (Json.member "status" v) Json.get_string in
  let* status =
    match status_s with
    | "completed" -> Ok Completed
    | "diverged" -> Ok Diverged
    | "timeout" -> Ok Timeout
    | "crashed" ->
      let msg =
        match Result.bind (Json.member "error" v) Json.get_string with
        | Ok m -> m
        | Error _ -> "unknown"
      in
      Ok (Crashed msg)
    | s -> Error (Printf.sprintf "unknown status %S" s)
  in
  let* attempts = Result.bind (Json.member "attempts" v) Json.get_int in
  let* elapsed = Result.bind (Json.member "elapsed" v) Json.get_float in
  let* result =
    match Json.member "result" v with
    | Ok rv ->
      let* r = run_of_json rv in
      Ok (Some r)
    | Error _ -> Ok None
  in
  Ok { job; status; attempts; elapsed; result }

(* --- manifest ----------------------------------------------------------- *)

let manifest_to_json m =
  Json.Obj
    [
      ("gncg-journal", Json.num_int m.schema);
      ("model", Json.Str m.model);
      ("ns", Json.List (List.map Json.num_int m.ns));
      ("alphas", Json.List (List.map (fun a -> Json.Num a) m.alphas));
      ("seeds", Json.List (List.map Json.num_int m.seeds));
      ("rule", Json.Str (Job.rule_to_string m.rule));
      ("max_steps", Json.num_int m.max_steps);
      ("jobs", Json.num_int m.jobs);
    ]

let manifest_of_json v =
  let str k = Result.bind (Json.member k v) Json.get_string in
  let int k = Result.bind (Json.member k v) Json.get_int in
  let* schema = int "gncg-journal" in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "unsupported journal schema %d" schema)
  in
  let* model = str "model" in
  let int_list k =
    let* vs = Result.bind (Json.member k v) Json.get_list in
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* i = Json.get_int x in
        Ok (i :: acc))
      vs (Ok [])
  in
  let* ns = int_list "ns" in
  let* seeds = int_list "seeds" in
  let* alphas =
    let* vs = Result.bind (Json.member "alphas" v) Json.get_list in
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* f = Json.get_float x in
        Ok (f :: acc))
      vs (Ok [])
  in
  let* rule = Result.bind (str "rule") Job.rule_of_string in
  let* () = Job.legacy_evaluator v in
  let* max_steps = int "max_steps" in
  let* jobs = int "jobs" in
  Ok { schema; model; ns; alphas; seeds; rule; max_steps; jobs }

(* --- file handling ------------------------------------------------------ *)

type t = { oc : out_channel; lock : Mutex.t }

let write_line oc line =
  (* One write call per line; flush makes the line durable before the
     scheduler hands out credit for the job. *)
  output_string oc (line ^ "\n");
  flush oc

let create path m =
  let oc = open_out path in
  write_line oc (Json.to_string (manifest_to_json m));
  { oc; lock = Mutex.create () }

let append t e =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> write_line t.oc (entry_to_string e))

let close t = close_out t.oc

type loaded = { manifest : manifest; entries : entry list; dropped : int }

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let load path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "no journal at %S" path)
  else
    match read_lines path with
    | exception Sys_error msg -> Error msg
    | [] -> Error (Printf.sprintf "journal %S is empty" path)
    | first :: rest ->
      let* manifest =
        match Result.bind (Json.parse first) manifest_of_json with
        | Ok m -> Ok m
        | Error e -> Error (Printf.sprintf "journal %S: bad manifest: %s" path e)
      in
      (* Tolerate corruption: a crash can truncate the final line, and a
         hand-edited journal may hold stray lines; skip and count rather
         than fail, so the good prefix of a 1000-run sweep survives. *)
      let entries, dropped =
        List.fold_left
          (fun (es, dropped) line ->
            if String.trim line = "" then (es, dropped)
            else
              match Result.bind (Json.parse line) entry_of_json with
              | Ok e -> (e :: es, dropped)
              | Error _ -> (es, dropped + 1))
          ([], 0) rest
      in
      Ok { manifest; entries = List.rev entries; dropped }

let append_to path =
  let* loaded = load path in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Ok ({ oc; lock = Mutex.create () }, loaded)

let terminal entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.status with
      | Completed | Diverged -> Hashtbl.replace tbl e.job e
      | Timeout | Crashed _ -> ())
    entries;
  tbl
