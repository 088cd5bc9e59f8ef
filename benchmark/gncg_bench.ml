(* gncg benchmark: the paper's workloads end to end, with a traced
   per-layer split.

     gncg_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
                [--out FILE] [--pins FILE]
     gncg_bench --quick [--pins FILE] [--manifest BENCHMARK.json]

   One invocation runs one workload in a fresh process and prints every
   metric by name with its unit, then, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"} carrying the end-to-end
   metrics ([--trace 0]) or the per-layer metrics of a traced run
   ([--trace 1]).  It exits 1 when any output check fails.  [--out]
   writes the full result (both metric sets, checks, digest) as JSON.
   [--quick] runs every workload at reduced size, each in a re-executed
   child process, and checks that every metric BENCHMARK.json names is
   emitted and finite and that every traced replay reproduces its
   engine.  Scratch files go under .bench_run/ in the working directory.
   See README.md for the workloads and the method. *)

module H = Harness
module Json = Gncg_runs.Json
module Random_host = Gncg_metric.Random_host

(* ------------------------------------------------------------ workloads *)

let uniform_host rng ~n =
  Gncg.Host.make ~alpha:2.0 (Random_host.uniform_metric rng ~n ~lo:1.0 ~hi:6.0)

let tree_host rng ~n =
  let metric, geometry = Random_host.tree_metric rng ~n ~wmin:1.0 ~wmax:10.0 in
  Gncg.Host.make ~geometry ~alpha:2.0 metric

let euclid =
  Gncg_workload.Instances.Euclid { norm = Gncg_metric.Euclidean.L2; d = 2; box = 100.0 }

let workloads : (string * (H.cfg -> H.result)) list =
  [
    ("dyn-greedy-n100", Wl_dynamics.run { n = 100; quick_n = 30; per_10s = 16; host = uniform_host });
    ("dyn-greedy-tree-n150", Wl_dynamics.run { n = 150; quick_n = 40; per_10s = 20; host = tree_host });
    ("certify-ge-n50", Wl_certify.run { n = 50; quick_n = 20; per_10s = 28; host = uniform_host });
    ("serve-mix", Wl_serve.run { model = euclid; n = 20; quick_n = 8; per_10s = 500 });
  ]

(* ----------------------------------------------------------------- args *)

type args = {
  workload : string option;
  seed : int option;
  seconds : float;
  trace : bool;
  out : string option;
  quick : bool;
  pins : string;
  manifest : string;
}

let usage () =
  prerr_endline
    "usage: gncg_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]\n\
    \                  [--out FILE] [--pins FILE]\n\
    \       gncg_bench --quick [--pins FILE] [--manifest FILE]";
  exit 2

let parse_args argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with Some s -> go { a with seed = Some s } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some t when t > 0.0 -> go { a with seconds = t } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--out" :: f :: rest -> go { a with out = Some f } rest
    | "--quick" :: rest -> go { a with quick = true } rest
    | "--pins" :: f :: rest -> go { a with pins = f } rest
    | "--manifest" :: f :: rest -> go { a with manifest = f } rest
    | arg :: _ ->
      prerr_endline ("gncg_bench: unknown argument " ^ arg);
      usage ()
  in
  go
    {
      workload = None;
      seed = None;
      seconds = 15.0;
      trace = false;
      out = None;
      quick = false;
      pins = "benchmark/pins.json";
      manifest = "BENCHMARK.json";
    }
    (List.tl (Array.to_list argv))

(* ----------------------------------------------------------------- pins *)

(* pins.json: per workload, the default seed, the held-out seeds and the
   output digest of each pinned seed at the pinned run length. *)
type pin = { default_seed : int; pinned_seconds : float; digests : (int * string) list }

let load_pins path =
  let ( let* ) = Result.bind in
  let* text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error e -> Error e
  in
  let* doc = Json.parse text in
  let* ws = Json.member "workloads" doc in
  match ws with
  | Json.Obj entries ->
    List.fold_left
      (fun acc (name, j) ->
        let* acc = acc in
        let* default_seed = Result.bind (Json.member "default_seed" j) Json.get_int in
        let* pinned_seconds = Result.bind (Json.member "seconds" j) Json.get_float in
        let* digests =
          match Json.member "digests" j with
          | Ok (Json.Obj ds) ->
            List.fold_left
              (fun acc (seed, d) ->
                let* acc = acc in
                let* d = Json.get_string d in
                match int_of_string_opt seed with
                | Some s -> Ok ((s, d) :: acc)
                | None -> Error ("bad pinned seed " ^ seed))
              (Ok []) ds
          | Ok _ -> Error "digests: not an object"
          | Error e -> Error e
        in
        Ok ((name, { default_seed; pinned_seconds; digests }) :: acc))
      (Ok []) entries
  | _ -> Error "workloads: not an object"

(* ------------------------------------------------------------- running *)

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
    end
  in
  go dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run_root = ".bench_run"

let run_one args name run =
  let pins =
    match load_pins args.pins with
    | Ok p -> p
    | Error e ->
      Printf.eprintf "gncg_bench: cannot read pins %s: %s\n" args.pins e;
      exit 2
  in
  let pin = List.assoc_opt name pins in
  let seed =
    match (args.seed, pin) with
    | Some s, _ -> s
    | None, Some p -> p.default_seed
    | None, None -> 1
  in
  let run_dir = Filename.concat run_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  mkdir_p run_dir;
  let cfg =
    { H.seed; seconds = args.seconds; traced = args.trace; quick = args.quick; run_dir }
  in
  let r = Fun.protect ~finally:(fun () -> rm_rf run_dir) (fun () -> run cfg) in
  let metrics = r.H.metrics @ [ ("calib.rowsum_ns", H.calib_rowsum_ns ()) ] in
  (* A traced run reports every per-layer metric: the layers this
     workload never enters read 0. *)
  let shown = if args.trace then H.per_layer else H.end_to_end in
  let metrics =
    if not args.trace then metrics
    else
      metrics
      @ List.filter_map
          (fun (m, _) -> if List.mem_assoc m metrics then None else Some (m, 0.0))
          H.per_layer
  in
  let value m = Option.value (List.assoc_opt m metrics) ~default:Float.nan in
  let pinned =
    match pin with
    | Some p when (not args.quick) && p.pinned_seconds = args.seconds -> (
      match List.assoc_opt seed p.digests with
      | Some d ->
        [ (Printf.sprintf "output digest matches the pin of seed %d" seed, d = r.digest) ]
      | None -> [])
    | _ -> []
  in
  let finite = List.for_all (fun (m, _) -> Float.is_finite (value m)) (H.end_to_end @ shown) in
  let checks = r.checks @ pinned @ [ ("every metric is measured and finite", finite) ] in
  let correct = List.for_all snd checks && r.failed = 0 in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" name seed args.seconds
    (if args.trace then 1 else 0);
  List.iter (fun l -> Printf.printf "  %s\n" l) r.notes;
  List.iter
    (fun (c, ok) -> Printf.printf "  check %-4s %s\n" (if ok then "ok" else "FAIL") c)
    checks;
  Printf.printf "  digest %s\n" r.digest;
  List.iter
    (fun (m, unit) -> Printf.printf "  %-36s %16.6g %s\n" m (value m) unit)
    (H.end_to_end @ (if args.trace then H.per_layer else [ ("calib.rowsum_ns", "ns") ]));
  if !H.Spans.recorded <> [] then begin
    let path = Filename.concat run_root (Printf.sprintf "%s-seed%d.spans.jsonl" name seed) in
    H.Spans.write_jsonl path;
    Printf.printf "  spans written to %s\n" path
  end;
  let metric_json names =
    Json.Obj
      (List.map
         (fun (m, unit) -> (m, Json.Obj [ ("value", Json.Num (value m)); ("unit", Json.Str unit) ]))
         names)
  in
  let counts =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.num_int r.attempted);
      ("failed", Json.num_int r.failed);
    ]
  in
  Option.iter
    (fun path ->
      let doc =
        [
          ("workload", Json.Str name);
          ("seed", Json.num_int seed);
          ("seconds", Json.Num args.seconds);
          ("trace", Json.Bool args.trace);
          ("quick", Json.Bool args.quick);
          ("digest", Json.Str r.digest);
          ("checks", Json.Obj (List.map (fun (c, ok) -> (c, Json.Bool ok)) checks));
          ("end_to_end", metric_json H.end_to_end);
          ("per_layer", metric_json H.per_layer);
          ("notes", Json.List (List.map (fun l -> Json.Str l) r.notes));
        ]
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string (Json.Obj (counts @ doc)));
          output_char oc '\n'))
    args.out;
  print_endline (Json.to_string (Json.Obj (counts @ [ ("metrics", metric_json shown) ])));
  exit (if correct then 0 else 1)

(* --------------------------------------------------------------- quick *)

(* BENCHMARK.json's metric names and units, per table. *)
let manifest_metrics path table =
  let ( let* ) = Result.bind in
  let* text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error e -> Error e
  in
  let* doc = Json.parse text in
  let* entries = Result.bind (Json.member table doc) Json.get_list in
  List.fold_left
    (fun acc e ->
      let* acc = acc in
      let* name = Result.bind (Json.member "name" e) Json.get_string in
      let* unit = Result.bind (Json.member "unit" e) Json.get_string in
      Ok ((name, unit) :: acc))
    (Ok []) entries
  |> Result.map List.rev

let quick args =
  let fail = ref [] in
  let note ok msg =
    Printf.printf "quick: %-4s %s\n%!" (if ok then "ok" else "FAIL") msg;
    if not ok then fail := msg :: !fail
  in
  let tables =
    List.map
      (fun (table, ours) ->
        match manifest_metrics args.manifest table with
        | Ok listed ->
          let sort = List.sort compare in
          note (sort listed = sort ours)
            (Printf.sprintf "%s of %s matches the metrics the benchmark emits" table args.manifest);
          listed
        | Error e ->
          note false (Printf.sprintf "cannot read %s of %s: %s" table args.manifest e);
          [])
      [ ("end_to_end", H.end_to_end); ("per_layer", H.per_layer) ]
  in
  let listed = List.concat tables in
  mkdir_p run_root;
  let (), elapsed =
    H.time (fun () ->
        List.iter
          (fun (name, seed) ->
            let out = Filename.concat run_root (Printf.sprintf "quick-%s-%d.json" name seed) in
            let argv =
              [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--quick";
                 "--trace"; "1"; "--pins"; args.pins; "--out"; out |]
            in
            let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
            let _, status = Unix.waitpid [] pid in
            let result =
              match In_channel.with_open_bin out In_channel.input_all with
              | text -> Json.parse text
              | exception Sys_error e -> Error e
            in
            match (status, result) with
            | Unix.WEXITED 0, Ok doc ->
              let value table m =
                Result.bind (Json.member table doc) (fun t ->
                    Result.bind (Json.member m t) (fun v ->
                        Result.bind (Json.member "value" v) Json.get_float))
              in
              let missing =
                List.filter
                  (fun (m, _) ->
                    let v =
                      match value "end_to_end" m with Ok v -> Ok v | Error _ -> value "per_layer" m
                    in
                    match v with Ok v -> not (Float.is_finite v) | Error _ -> true)
                  listed
              in
              note (missing = [])
                (Printf.sprintf "%s seed %d emits every listed metric, finite%s" name seed
                   (if missing = [] then ""
                    else ": missing " ^ String.concat ", " (List.map fst missing)));
              note
                (value "per_layer" "trace.replica_match" = Ok 1.0)
                (Printf.sprintf "%s seed %d: the traced replay matches its engine" name seed)
            | _ -> note false (Printf.sprintf "%s seed %d run failed" name seed))
          (List.concat_map (fun (name, _) -> [ (name, 1); (name, 2) ]) workloads))
  in
  Printf.printf "quick: %d workloads, 2 seeds each, in %.1f s\n" (List.length workloads) elapsed;
  exit (if !fail = [] then 0 else 1)

let () =
  let args = parse_args Sys.argv in
  match args.workload with
  | None when args.quick -> quick args
  | None -> usage ()
  | Some name -> (
    match List.assoc_opt name workloads with
    | Some run -> run_one args name run
    | None ->
      Printf.eprintf "gncg_bench: unknown workload %s (one of: %s)\n" name
        (String.concat ", " (List.map fst workloads));
      exit 2)
