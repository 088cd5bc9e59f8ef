(* The serve subsystem: wire protocol, session manager, stdio transport,
   and the crash-tolerance story (chaos-injected worker crashes, torn
   journals resumed across daemon restarts).

   Also home of the protocol-hostile Json tests: the daemon trusts
   [Gncg_runs.Json] with adversarial client input, so escaping, deep
   nesting, oversized lines and NaN/null behavior are pinned here. *)

open Helpers
module P = Gncg_serve.Protocol
module Session = Gncg_serve.Session
module Server = Gncg_serve.Server
module Client = Gncg_serve.Client
module Pool = Gncg_serve.Pool
module Json = Gncg_runs.Json
module Job = Gncg_runs.Job
module Batch = Gncg_runs.Batch
module Chaos = Gncg_runs.Chaos
module E = Gncg_util.Gncg_error
module Metric = Gncg_obs.Metric

let model = Gncg_workload.Instances.Euclid { norm = L2; d = 2; box = 100.0 }

let small_config =
  Job.grid ~max_steps:4000 model ~ns:[ 4; 5 ] ~alphas:[ 1.5; 3.0 ] ~seeds:[ 1; 2 ]

let sweep_job = P.Sweep { config = small_config; budget = None; retries = None }

let eq_job ~seed =
  P.Eq_check
    { model; n = 6; alpha = 2.0; seed; check = Gncg.Equilibrium.GE; stabilize = true }

let tmp_counter = ref 0

let tmp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gncg-serve-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let ok_exn label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (E.to_string e)

let jint key j =
  match Result.bind (Json.member key j) Json.get_int with
  | Ok i -> i
  | Error m -> Alcotest.failf "field %S: %s" key m

(* --- protocol ---------------------------------------------------------- *)

let roundtrip_request envelope =
  let line = Json.to_string (P.request_to_json envelope) in
  let back = ok_exn "request_of_line" (P.request_of_line line) in
  Alcotest.(check string)
    "request round trip" line
    (Json.to_string (P.request_to_json back))

let test_request_roundtrips () =
  List.iter roundtrip_request
    [
      { P.id = "a"; request = P.Ping };
      { P.id = "b"; request = P.Submit sweep_job };
      { P.id = "c"; request = P.Submit (eq_job ~seed:3) };
      {
        P.id = "d";
        request =
          P.Submit (P.Best_response { model; n = 7; alpha = 1.0; seed = 9; agent = 2 });
      };
      { P.id = "e"; request = P.Status None };
      { P.id = "f"; request = P.Status (Some "j1") };
      { P.id = "g"; request = P.Watch { job = "j1"; since = 17; trace = true } };
      { P.id = "h"; request = P.Cancel "j2" };
      { P.id = "i"; request = P.Fetch "j3" };
      { P.id = "quoted \"id\" \\ with\nnewline"; request = P.Shutdown };
    ]

let roundtrip_response resp =
  let line = Json.to_string (P.response_to_json resp) in
  let back = ok_exn "response_of_line" (P.response_of_line line) in
  Alcotest.(check string)
    "response round trip" line
    (Json.to_string (P.response_to_json back))

let test_response_roundtrips () =
  roundtrip_response (P.Reply { id = "r1"; data = Json.Obj [ ("x", Json.num_int 3) ] });
  roundtrip_response
    (P.Event
       {
         id = "r2";
         event =
           {
             P.seq = 12;
             name = "job-result";
             data = Json.Obj [ ("nested", Json.Obj [ ("deep", Json.List [ Json.Null ]) ]) ];
           };
       });
  (* Refusals must reconstruct the exact typed error, location included. *)
  let error =
    E.v ~where:(E.Pair (3, 7)) ~context:"Serve.Session" E.Bounds "agent out of range"
  in
  let line = Json.to_string (P.response_to_json (P.Refused { id = "r3"; error })) in
  match ok_exn "refusal" (P.response_of_line line) with
  | P.Refused { id; error = back } ->
    Alcotest.(check string) "refusal id" "r3" id;
    check_true "refusal error round trips exactly" (back = error)
  | _ -> Alcotest.fail "expected a refusal"

let test_version_rejected () =
  match P.request_of_line {|{"v":2,"id":"x","op":"ping"}|} with
  | Error e ->
    check_true "kind is Parse" (e.E.kind = E.Parse);
    check_true "message names the version" (contains (E.to_string e) "2")
  | Ok _ -> Alcotest.fail "version 2 must be rejected"

let test_malformed_requests () =
  let refused line =
    match P.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse refusal for %s" line
  in
  refused "not json at all";
  refused {|{"v":1,"id":"x","op":"warp"}|};
  refused {|{"v":1,"op":"ping"}|};
  refused {|{"v":1,"id":"x","op":"submit","job":{"kind":"sweep","model":"euclid"}}|};
  refused
    {|{"v":1,"id":"x","op":"submit","job":{"kind":"sweep","model":"euclid","ns":[],"alphas":[1.0],"seeds":[1]}}|};
  refused {|{"v":1,"id":"x","op":"submit","job":{"kind":"eq-check","model":"euclid","n":0,"alpha":1.0,"seed":1,"check":"ge"}}|}

(* Out-of-range parameters are typed [Parse] refusals at the wire, by the
   same rules the CLI applies ([Host.check_n], [Host.check_alpha]). *)
let test_out_of_range_jobs_refused () =
  let with_fields job fields =
    match P.job_to_json job with
    | Json.Obj kvs ->
      Json.Obj (List.map (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k fields))) kvs)
    | _ -> Alcotest.fail "a job encodes as an object"
  in
  let refused label job fields =
    match P.job_of_json (with_fields job fields) with
    | Error e -> check_true (label ^ ": Parse error") (e.E.kind = E.Parse)
    | Ok _ -> Alcotest.failf "%s must be refused" label
  in
  let nums xs = Json.List (List.map (fun x -> Json.Num x) xs) in
  refused "ns [0]" sweep_job [ ("ns", nums [ 4.0; 0.0 ]) ];
  refused "alphas [0]" sweep_job [ ("alphas", nums [ 0.0 ]) ];
  refused "alphas [-1]" sweep_job [ ("alphas", nums [ 1.5; -1.0 ]) ];
  refused "alphas [nan]" sweep_job [ ("alphas", nums [ Float.nan ]) ];
  refused "max_steps 0" sweep_job [ ("max_steps", Json.num_int 0) ];
  refused "max_steps -5" sweep_job [ ("max_steps", Json.num_int (-5)) ];
  refused "eq-check n 0" (eq_job ~seed:1) [ ("n", Json.num_int 0) ];
  refused "eq-check alpha 0" (eq_job ~seed:1) [ ("alpha", Json.Num 0.0) ];
  refused "eq-check alpha inf" (eq_job ~seed:1) [ ("alpha", Json.Num Float.infinity) ];
  let br = P.Best_response { model; n = 5; alpha = 1.0; seed = 1; agent = 0 } in
  refused "best-response alpha -2" br [ ("alpha", Json.Num (-2.0)) ];
  refused "best-response agent n" br [ ("agent", Json.num_int 5) ];
  refused "best-response agent -1" br [ ("agent", Json.num_int (-1)) ];
  List.iter
    (fun job -> ignore (ok_exn "in-range job" (P.job_of_json (P.job_to_json job))))
    [ sweep_job; eq_job ~seed:1; br ]

(* [j] with the model string [m] in every "model" field. *)
let rec with_model m = function
  | Json.Obj kvs ->
    Json.Obj (List.map (fun (k, v) -> (k, if k = "model" then Json.Str m else with_model m v)) kvs)
  | v -> v

(* A model string out of range is refused by the one model parser behind
   every entry point: a serve job of each kind (a [Parse] error, as for a
   bad [n] or [alpha]), a journal manifest and a worker's spec. *)
let test_out_of_range_models_refused () =
  let br = P.Best_response { model; n = 5; alpha = 1.0; seed = 1; agent = 0 } in
  let spec =
    P.Worker_wire.req_to_json
      (P.Worker_wire.Run
         {
           rid = 1;
           attempt = 1;
           payload = P.Worker_wire.Spec (Job.make model ~n:5 ~alpha:1.0 ~seed:1);
         })
  in
  ignore (ok_exn "in-range spec" (P.Worker_wire.req_of_line (Json.to_string spec)));
  List.iter
    (fun m ->
      List.iter
        (fun job ->
          match P.job_of_json (with_model m (P.job_to_json job)) with
          | Error e -> check_true (m ^ ": Parse error") (e.E.kind = E.Parse)
          | Ok _ -> Alcotest.failf "job with model %s must be refused" m)
        [ sweep_job; eq_job ~seed:1; br ];
      let path = Filename.temp_file "gncg_test" ".jsonl" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("gncg-journal", Json.num_int 1);
                    ("model", Json.Str m);
                    ("ns", Json.List [ Json.num_int 5 ]);
                    ("alphas", Json.List [ Json.Num 1.0 ]);
                    ("seeds", Json.List [ Json.num_int 1 ]);
                    ("rule", Json.Str "greedy");
                    ("max_steps", Json.num_int 5000);
                    ("jobs", Json.num_int 1);
                  ])
            ^ "\n"));
      let loaded = Gncg_runs.Journal.load path in
      Sys.remove path;
      check_true (m ^ ": manifest refused") (Result.is_error loaded);
      check_true (m ^ ": worker spec refused")
        (Result.is_error
           (P.Worker_wire.req_of_line (Json.to_string (with_model m spec)))))
    out_of_range_models

(* A journal manifest and a serve sweep request decode their grid lists
   through one decoder ([Job.grid_lists_of_json]): both refuse the same
   out-of-range grids and accept the same in-range one. *)
let test_grid_decoders_agree () =
  let nums xs = Json.List (List.map (fun x -> Json.Num x) xs) in
  let manifest_loads ns alphas =
    let path = Filename.temp_file "gncg_test" ".jsonl" in
    let line =
      Json.to_string
        (Json.Obj
           [
             ("gncg-journal", Json.num_int 1);
             ("model", Json.Str "tree(1,10)");
             ("ns", nums ns);
             ("alphas", nums alphas);
             ("seeds", nums [ 1.0 ]);
             ("rule", Json.Str "greedy");
             ("max_steps", Json.num_int 5000);
             ("jobs", Json.num_int (List.length ns * List.length alphas));
           ])
    in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (line ^ "\n"));
    let loaded = Gncg_runs.Journal.load path in
    Sys.remove path;
    Result.is_ok loaded
  in
  let request_parses ns alphas =
    match
      P.job_of_json
        (Json.Obj
           [
             ("kind", Json.Str "sweep");
             ("model", Json.Str "tree(1,10)");
             ("ns", nums ns);
             ("alphas", nums alphas);
             ("seeds", nums [ 1.0 ]);
           ])
    with
    | Ok _ -> true
    | Error e ->
      check_true "a refused grid is a Parse error" (e.E.kind = E.Parse);
      false
  in
  List.iter
    (fun (label, ns, alphas) ->
      check_false ("manifest refuses " ^ label) (manifest_loads ns alphas);
      check_false ("request refuses " ^ label) (request_parses ns alphas))
    [
      ("n = 0", [ 0.0 ], [ 1.0 ]);
      ("n = -1", [ 4.0; -1.0 ], [ 1.0 ]);
      ("alpha = 0", [ 4.0 ], [ 0.0 ]);
      ("alpha < 0", [ 4.0 ], [ 2.0; -1.5 ]);
      ("alpha = nan", [ 4.0 ], [ Float.nan ]);
      ("alpha = inf", [ 4.0 ], [ Float.infinity ]);
    ];
  check_true "manifest accepts an in-range grid" (manifest_loads [ 4.0; 6.0 ] [ 1.5 ]);
  check_true "request accepts an in-range grid" (request_parses [ 4.0; 6.0 ] [ 1.5 ])

let test_job_keys () =
  let k1 = P.job_key sweep_job and k1' = P.job_key sweep_job in
  Alcotest.(check string) "key is deterministic" k1 k1';
  Alcotest.(check int) "key is 16 hex chars" 16 (String.length k1);
  String.iter
    (fun c ->
      check_true "hex digit" ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    k1;
  check_true "different jobs, different keys"
    (P.job_key (eq_job ~seed:1) <> P.job_key (eq_job ~seed:2));
  (* Decoding the canonical form must preserve the key: the daemon dedups
     on it across the wire. *)
  let back = ok_exn "job_of_json" (P.job_of_json (P.job_to_json sweep_job)) in
  Alcotest.(check string) "key survives the wire" k1 (P.job_key back);
  (* Sweep journals on disk are named by this key: it was measured before
     dynamics lost their evaluator choice and must not move. *)
  let pinned =
    P.Sweep
      {
        config =
          Job.grid
            (Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 10.0 })
            ~ns:[ 5 ] ~alphas:[ 1.0 ] ~seeds:[ 1 ];
        budget = None;
        retries = None;
      }
  in
  Alcotest.(check string) "pinned sweep key" "f548021c35bea5ab" (P.job_key pinned);
  (* Requests written for either old evaluator still parse, as the one
     sweep there is now. *)
  List.iter
    (fun evaluator ->
      let line =
        Printf.sprintf
          {|{"v":1,"id":"x","op":"submit","job":{"kind":"sweep","model":"tree(1,10)","ns":[5],"alphas":[1],"seeds":[1],"rule":"greedy","evaluator":"%s"}}|}
          evaluator
      in
      match (ok_exn ("evaluator " ^ evaluator) (P.request_of_line line)).P.request with
      | P.Submit job -> Alcotest.(check string) ("evaluator " ^ evaluator) "f548021c35bea5ab" (P.job_key job)
      | _ -> Alcotest.fail "a submit parses as a submit")
    [ "reference"; "incremental" ];
  check_true "unknown evaluator refused"
    (Result.is_error
       (P.request_of_line
          {|{"v":1,"id":"x","op":"submit","job":{"kind":"sweep","model":"tree(1,10)","ns":[5],"alphas":[1],"seeds":[1],"evaluator":"fast"}}|}))

(* --- protocol-hostile Json payloads ------------------------------------ *)

let json_roundtrip label v =
  match Json.parse (Json.to_string v) with
  | Ok back -> Alcotest.(check string) label (Json.to_string v) (Json.to_string back)
  | Error m -> Alcotest.failf "%s: %s" label m

let test_json_escaping () =
  json_roundtrip "quotes and backslashes"
    (Json.Str {|she said "hi\there" \\ and left|});
  json_roundtrip "newlines and tabs" (Json.Str "line one\nline two\ttabbed\rreturn");
  json_roundtrip "control bytes" (Json.Str "nul-adjacent:\x01\x02\x1f end");
  json_roundtrip "object keys need escaping too"
    (Json.Obj [ ({|key "with" quotes|}, Json.Bool true); ("tab\tkey", Json.Null) ]);
  (* \u escapes parse back to the byte the codec rendered them from. *)
  (match Json.parse {|"A\u0009B"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "unicode escapes decode" "A\tB" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error m -> Alcotest.failf "unicode escapes: %s" m);
  (* A rendered line must never contain a raw newline: the protocol is
     line-delimited and an embedded newline would tear framing. *)
  let line = Json.to_string (Json.Str "a\nb\rc") in
  String.iter (fun c -> check_true "no raw newline in framing" (c <> '\n' && c <> '\r')) line

let test_json_nesting () =
  let deep =
    let rec build k acc =
      if k = 0 then acc
      else build (k - 1) (Json.Obj [ ("child", acc); ("k", Json.num_int k) ])
    in
    build 100 (Json.List [ Json.Str "leaf"; Json.Null; Json.Bool false ])
  in
  json_roundtrip "100-deep nested objects" deep

let test_json_big_line () =
  (* > 64 KiB on one line, with escape-needing characters sprinkled in. *)
  let chunk = "payload-\"quote\"-\\slash\\-\x02-" in
  let b = Buffer.create 70_000 in
  while Buffer.length b < 66_000 do
    Buffer.add_string b chunk
  done;
  let big_str = Json.Str (Buffer.contents b) in
  let line = Json.to_string big_str in
  check_true "line exceeds 64 KiB" (String.length line > 65_536);
  json_roundtrip "oversized string line" big_str;
  let big_list = Json.List (List.init 20_000 (fun i -> Json.num_int i)) in
  check_true "list line exceeds 64 KiB"
    (String.length (Json.to_string big_list) > 65_536);
  json_roundtrip "oversized array line" big_list

let test_json_nan_null () =
  (* Non-finite floats render as null — lossy by design — and null reads
     back as NaN through get_float. *)
  Alcotest.(check string) "NaN renders as null" "null" (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string)
    "infinity renders as null" "null"
    (Json.to_string (Json.Num Float.infinity));
  (match Json.parse "null" with
  | Ok v -> check_true "null reads back as NaN" (Float.is_nan (Result.get_ok (Json.get_float v)))
  | Error m -> Alcotest.failf "parse null: %s" m);
  (* Through the protocol: a null budget means "no budget", not NaN. *)
  let line =
    Printf.sprintf
      {|{"kind":"sweep","model":"%s","ns":[4],"alphas":[1.5],"seeds":[1],"budget":null,"retries":null}|}
      (Job.model_to_string model)
  in
  match
    Result.bind (Json.parse line) (fun j ->
        Result.map_error E.to_string (P.job_of_json j))
  with
  | Ok (P.Sweep { budget = None; retries = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "null budget/retries must decode to None"
  | Error m -> Alcotest.failf "null budget: %s" m

let test_json_parse_errors () =
  let bad line =
    match Json.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for %s" line
  in
  bad {|{"a":1}trailing|};
  bad {|"unterminated|};
  bad {|{"a":}|};
  bad {|[1,2,|};
  bad {|{"bad escape":"\q"}|}

(* --- session ----------------------------------------------------------- *)

let collect_events session id =
  let rec go since acc =
    match Session.events_after session ~job:id ~since with
    | Error e -> Alcotest.failf "events_after: %s" (E.to_string e)
    | Ok (events, terminal) ->
      let acc = acc @ events in
      let since =
        match List.rev events with e :: _ -> e.P.seq | [] -> since
      in
      if terminal then acc else go since acc
  in
  go 0 []

let find_event name events =
  match List.find_opt (fun (e : P.event) -> e.name = name) events with
  | Some e -> e.P.data
  | None ->
    Alcotest.failf "no %S event among [%s]" name
      (String.concat "; " (List.map (fun (e : P.event) -> e.P.name) events))

let submit_and_finish session job =
  let { Session.job_id; _ } = ok_exn "submit" (Session.submit session job) in
  let events = collect_events session job_id in
  (job_id, events)

let test_session_eq_check () =
  let session = Session.create ~state_dir:(tmp_dir ()) ~domains:2 () in
  let id, events = submit_and_finish session (eq_job ~seed:1) in
  let verdict = find_event "verdict" events in
  check_true "greedy dynamics converged to a GE"
    (Result.get_ok (Result.bind (Json.member "holds" verdict) Json.get_bool));
  check_true "job is done"
    (ok_exn "state" (Session.job_state session id) = P.Done);
  check_true "host cached" (Session.hosts_cached session = 1);
  (* Same instance again: served from the cache, same verdict. *)
  let _, events2 = submit_and_finish session (eq_job ~seed:1) in
  ignore (find_event "verdict" events2);
  Alcotest.(check int) "no duplicate host construction" 1 (Session.hosts_cached session);
  Session.drain session

let test_session_sweep_matches_batch () =
  let session = Session.create ~state_dir:(tmp_dir ()) ~domains:2 () in
  let id, events = submit_and_finish session sweep_job in
  let summary = find_event "summary" events in
  Alcotest.(check int) "all jobs ran" 8 (jint "executed" summary);
  Alcotest.(check int) "all jobs completed" 8 (jint "completed" summary);
  let csv = ok_exn "fetch_csv" (Session.fetch_csv session id) in
  let direct = Batch.run ~domains:2 small_config in
  Alcotest.(check string)
    "daemon csv is byte-identical to the batch csv"
    (Gncg_workload.Report.runs_to_csv direct.Batch.runs)
    csv;
  (* Resubmission dedups onto the finished job. *)
  let again = ok_exn "resubmit" (Session.submit session sweep_job) in
  check_true "second submission attached" again.Session.attached;
  Alcotest.(check string) "same job id" id again.Session.job_id;
  Session.drain session

let test_session_validation () =
  let session = Session.create ~state_dir:(tmp_dir ()) ~domains:2 () in
  (match
     Session.submit session
       (P.Eq_check
          {
            model;
            n = 13;
            alpha = 1.0;
            seed = 1;
            check = Gncg.Equilibrium.NE;
            stabilize = false;
          })
   with
  | Error e -> check_true "NE guard is a Bounds error" (e.E.kind = E.Bounds)
  | Ok _ -> Alcotest.fail "NE check with n = 13 must be refused");
  (match
     Session.submit session
       (P.Best_response { model; n = 5; alpha = 1.0; seed = 1; agent = 5 })
   with
  | Error e -> check_true "agent bound is a Bounds error" (e.E.kind = E.Bounds)
  | Ok _ -> Alcotest.fail "agent 5 of 5 must be refused");
  (match Session.job_state session "j999" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown job id must be refused");
  Session.drain session;
  match Session.submit session (eq_job ~seed:1) with
  | Error e -> check_true "drained session refuses with Io" (e.E.kind = E.Io)
  | Ok _ -> Alcotest.fail "a drained session must refuse submissions"

let test_session_cancel () =
  (* A slow exec seam keeps the first sweep on the executor long enough
     for the second to still be queued when the cancel lands. *)
  let slow spec =
    Thread.delay 0.02;
    Job.execute spec
  in
  let session =
    Session.create ~state_dir:(tmp_dir ()) ~domains:2 ~exec_seam:slow ()
  in
  let first = ok_exn "submit 1" (Session.submit session sweep_job) in
  let second =
    ok_exn "submit 2"
      (Session.submit session
         (P.Sweep
            {
              config =
                Job.grid ~max_steps:4000 model ~ns:[ 4 ] ~alphas:[ 9.0 ]
                  ~seeds:[ 1 ];
              budget = None;
              retries = None;
            }))
  in
  check_true "queued job cancels"
    (ok_exn "cancel" (Session.cancel session second.Session.job_id));
  check_true "cancelled state"
    (ok_exn "state" (Session.job_state session second.Session.job_id) = P.Cancelled);
  (* The cancelled job's watch terminates immediately... *)
  let events = collect_events session second.Session.job_id in
  check_true "cancelled stream closed" (events <> []);
  (* ...and cancelling the finished first job is a no-op. *)
  ignore (collect_events session first.Session.job_id);
  check_false "terminal job does not cancel"
    (ok_exn "cancel done" (Session.cancel session first.Session.job_id));
  Session.drain session

let test_concurrent_sessions () =
  let session = Session.create ~state_dir:(tmp_dir ()) ~domains:2 () in
  (* Eight client threads: four submit distinct queries, four watch the
     same sweep; every watcher must replay the identical stream. *)
  let { Session.job_id = sweep_id; _ } =
    ok_exn "submit sweep" (Session.submit session sweep_job)
  in
  let watcher_counts = Array.make 4 0 in
  let watchers =
    List.init 4 (fun i ->
        Thread.create
          (fun () -> watcher_counts.(i) <- List.length (collect_events session sweep_id))
          ())
  in
  let submitter_results = Array.make 4 false in
  let submitters =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let _, events = submit_and_finish session (eq_job ~seed:(i + 1)) in
            submitter_results.(i) <-
              (try
                 ignore (find_event "verdict" events);
                 true
               with _ -> false))
          ())
  in
  List.iter Thread.join (watchers @ submitters);
  Array.iteri
    (fun i ok -> check_true (Printf.sprintf "submitter %d got a verdict" i) ok)
    submitter_results;
  Array.iter
    (fun c -> Alcotest.(check int) "watchers agree on the stream" watcher_counts.(0) c)
    watcher_counts;
  check_true "watchers saw the whole stream" (watcher_counts.(0) > 8);
  Session.drain session

(* --- crash tolerance --------------------------------------------------- *)

let test_chaos_crashed_workers () =
  (* Every job crashes on its first attempt (Injected_crash inside the
     worker domain); with one retry the batch must still complete. *)
  let plan = Chaos.plan ~crash_p:1.0 ~fault_attempts:1 ~seed:77 () in
  let seam = Chaos.wrap plan ~key:Job.hash Job.execute in
  let session =
    Session.create ~state_dir:(tmp_dir ()) ~domains:2 ~retries:1 ~exec_seam:seam ()
  in
  let id, events = submit_and_finish session sweep_job in
  let summary = find_event "summary" events in
  Alcotest.(check int) "every job completed despite crashing" 8 (jint "completed" summary);
  Alcotest.(check int) "no crash survives the retry" 0 (jint "crashed" summary);
  Alcotest.(check int) "one retry per job" 8 (jint "retries" summary);
  check_true "job is done" (ok_exn "state" (Session.job_state session id) = P.Done);
  Session.drain session

let test_torn_journal_resume () =
  (* A daemon killed mid-append leaves a torn journal; a fresh session
     on the same state dir must resume it, re-executing exactly the one
     job whose record was torn off. *)
  let dir = tmp_dir () in
  let journal = Filename.concat dir ("sweep-" ^ P.job_key sweep_job ^ ".jsonl") in
  let (_ : Batch.summary) = Batch.run ~domains:2 ~journal small_config in
  Chaos.truncate_last_line journal;
  let session = Session.create ~state_dir:dir ~domains:2 () in
  let id, events = submit_and_finish session sweep_job in
  let summary = find_event "summary" events in
  Alcotest.(check int) "exactly the torn job re-executed" 1 (jint "executed" summary);
  Alcotest.(check int) "the rest skipped" 7 (jint "skipped" summary);
  Alcotest.(check int) "full batch completed" 8 (jint "completed" summary);
  let csv = ok_exn "fetch_csv" (Session.fetch_csv session id) in
  let direct = Batch.run ~domains:2 small_config in
  Alcotest.(check string)
    "resumed csv is byte-identical"
    (Gncg_workload.Report.runs_to_csv direct.Batch.runs)
    csv;
  Session.drain session

(* --- the worker pool --------------------------------------------------- *)

(* Process-level supervision under deterministic chaos: the worker-side
   fault oracle keys on (payload key, supervisor-tracked attempt), so a
   "kill the worker on the first attempt of every job" script converges
   after exactly one requeue per job — no racing external signals.

   Workers are spawned by exec'ing the real gncg binary with --chaos-*
   flags, not by forking a closure: OCaml 5 forbids [Unix.fork] while
   other domains are running, and respawns happen mid-sweep with the
   scheduler's domains live.  [Unix.create_process] has no such
   restriction, and the chaos oracle is pure in (seed, key, attempt), so
   the flag-built plan decides identically to an in-process one. *)

let gncg_exe =
  (* main.exe lives at _build/default/test/; the CLI two doors down. *)
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "gncg_cli.exe")

(* The CLI refuses the same out-of-range values as a usage error: never
   success, never an uncaught exception (exit 125). *)
let test_cli_rejects_out_of_range () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let status args =
    let pid = Unix.create_process gncg_exe (Array.of_list (gncg_exe :: args)) null null null in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED code -> code
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      List.iter
        (fun args ->
          let code = status args in
          if code = 0 || code = 125 then
            Alcotest.failf "gncg %s exited %d" (String.concat " " args) code)
        [
          [ "sweep"; "-n"; "0" ];
          [ "sweep"; "--alpha"; "0" ];
          [ "sweep"; "--alpha"; "nan" ];
          [ "sweep"; "--seeds=-2" ];
          [ "sweep"; "run"; "--seeds=-1" ];
          [ "sweep"; "run"; "--ns"; "0" ];
          [ "sweep"; "run"; "--alphas"; "0" ];
          [ "sweep"; "--evaluator"; "fast" ];
          [ "sweep"; "--evaluator"; "incremental" ];
          [ "sweep"; "run"; "--evaluator"; "reference" ];
        ])

let chaos_spawn ?(kill_p = 0.0) ?(hang_p = 0.0) ?(hang_s = 5.0) ?(fault_attempts = 1)
    ~seed () =
  Pool.spawn_exec
    [|
      gncg_exe; "worker";
      "--chaos-kill-p"; string_of_float kill_p;
      "--chaos-hang-p"; string_of_float hang_p;
      "--chaos-hang-s"; string_of_float hang_s;
      "--chaos-fault-attempts"; string_of_int fault_attempts;
      "--chaos-seed"; string_of_int seed;
    |]

let with_metrics f =
  let was = Metric.enabled () in
  Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Metric.set_enabled was) f

let counter name = Metric.Counter.make ("serve.pool." ^ name)

let jbool key j =
  match Result.bind (Json.member key j) Json.get_bool with
  | Ok b -> b
  | Error m -> Alcotest.failf "field %S: %s" key m

(* A healthy pool: one fault-free worker answers an eq-check and a best
   response exactly as an in-process session does, and supervision
   records a spawn and nothing else — no restart, no degraded job, no
   breaker trip.  The worker's own jobs_done count proves the replies
   crossed the process boundary rather than degrading in-process. *)
let test_pool_healthy_matches_in_process () =
  with_metrics (fun () ->
      let names = [ "spawns"; "restarts"; "degraded_jobs"; "breaker_trips" ] in
      let before = List.map (fun name -> Metric.Counter.value (counter name)) names in
      let queries =
        [
          ("verdict", eq_job ~seed:2);
          ("best-response", P.Best_response { model; n = 6; alpha = 2.0; seed = 2; agent = 1 });
        ]
      in
      let replies session =
        List.map
          (fun (name, job) ->
            let _, events = submit_and_finish session job in
            Json.to_string (find_event name events))
          queries
      in
      let pooled =
        Session.create ~state_dir:(tmp_dir ())
          ~pool:({ Pool.default_config with Pool.workers = 1 }, chaos_spawn ~seed:1 ())
          ()
      in
      let from_pool = replies pooled in
      let status =
        match Session.pool_status pooled with
        | Some status -> status
        | None -> Alcotest.fail "session has a pool"
      in
      Session.drain pooled;
      let in_process = Session.create ~state_dir:(tmp_dir ()) ~domains:2 () in
      let local = replies in_process in
      Session.drain in_process;
      Alcotest.(check (list string)) "pool replies = in-process replies" local from_pool;
      let delta =
        List.map2 (fun name v0 -> (name, Metric.Counter.value (counter name) - v0)) names before
      in
      check_true "the pool spawned its worker" (List.assoc "spawns" delta >= 1);
      List.iter
        (fun name -> Alcotest.(check int) (name ^ " delta") 0 (List.assoc name delta))
        [ "restarts"; "degraded_jobs"; "breaker_trips" ];
      check_false "breaker closed" (jbool "breaker_open" status);
      let jobs_done =
        match Result.bind (Json.member "workers" status) Json.get_list with
        | Ok workers -> List.fold_left (fun acc w -> acc + jint "jobs_done" w) 0 workers
        | Error m -> Alcotest.failf "pool status has no workers: %s" m
      in
      Alcotest.(check int) "the worker answered every query" (List.length queries) jobs_done)

(* A pool spawned as [gncg worker --selfcheck 1], the worker command line
   of [gncg serve --workers N --selfcheck 1], runs a sweep to the
   in-process CSV bytes: the workers accept the flag (a worker that
   refused it would exit, and the jobs would restart or degrade to the
   daemon), and the drift sentinel probing inside them changes no row. *)
let test_pool_selfcheck_matches_in_process () =
  with_metrics (fun () ->
      let names = [ "restarts"; "degraded_jobs" ] in
      let before = List.map (fun name -> Metric.Counter.value (counter name)) names in
      let session =
        Session.create ~state_dir:(tmp_dir ())
          ~pool:
            ( { Pool.default_config with Pool.workers = 1 },
              Pool.spawn_exec [| gncg_exe; "worker"; "--selfcheck"; "1" |] )
          ()
      in
      let id, events = submit_and_finish session sweep_job in
      Alcotest.(check int) "every job completed" 8 (jint "completed" (find_event "summary" events));
      let csv = ok_exn "fetch_csv" (Session.fetch_csv session id) in
      Session.drain session;
      List.iter2
        (fun name v0 ->
          Alcotest.(check int) (name ^ " delta") 0 (Metric.Counter.value (counter name) - v0))
        names before;
      let direct = Batch.run ~domains:2 small_config in
      Alcotest.(check string)
        "csv from sentinel-probing workers is byte-identical"
        (Gncg_workload.Report.runs_to_csv direct.Batch.runs)
        csv)

(* The daemon refuses every out-of-range model at submit with a [Parse]
   error, whether it runs queries in process or on a worker pool: the
   request parser refuses them before any queue, key or journal. *)
let test_daemon_refuses_out_of_range_models () =
  List.iter
    (fun workers ->
      let argv =
        [| gncg_exe; "serve"; "--stdio"; "--state-dir"; tmp_dir (); "--workers"; workers |]
      in
      let ic, oc = Unix.open_process_args gncg_exe argv in
      let send envelope = output_string oc (Json.to_string envelope ^ "\n") in
      List.iter
        (fun m ->
          send (with_model m (P.request_to_json { P.id = m; request = P.Submit (eq_job ~seed:1) })))
        out_of_range_models;
      send (P.request_to_json { P.id = "bye"; request = P.Shutdown });
      flush oc;
      List.iter
        (fun m ->
          match P.response_of_line (input_line ic) with
          | Ok (P.Refused { error; _ }) ->
            check_true
              (Printf.sprintf "--workers %s, %s: Parse refusal" workers m)
              (error.E.kind = E.Parse)
          | _ -> Alcotest.failf "--workers %s: %s was not refused" workers m)
        out_of_range_models;
      (* The shutdown reply, then end of file when the daemon exits. *)
      ignore (In_channel.input_all ic);
      match Unix.close_process (ic, oc) with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.failf "--workers %s: the daemon did not exit cleanly" workers)
    [ "0"; "1" ]

let test_pool_kill_requeue () =
  with_metrics (fun () ->
      let requeues0 = Metric.Counter.value (counter "requeues") in
      let restarts0 = Metric.Counter.value (counter "restarts") in
      (* Every spec's first dispatch SIGKILLs its worker mid-job. *)
      let session =
        Session.create ~state_dir:(tmp_dir ())
          ~pool:
            ( { Pool.default_config with Pool.workers = 2; breaker_threshold = 1000 },
              chaos_spawn ~kill_p:1.0 ~fault_attempts:1 ~seed:11 () )
          ()
      in
      let id, events = submit_and_finish session sweep_job in
      let summary = find_event "summary" events in
      Alcotest.(check int) "every job completed" 8 (jint "completed" summary);
      Alcotest.(check int) "no crash surfaced" 0 (jint "crashed" summary);
      check_true "job is done" (ok_exn "state" (Session.job_state session id) = P.Done);
      (* Each of the 8 specs cost one requeue and one worker restart. *)
      check_true "requeues counted"
        (Metric.Counter.value (counter "requeues") - requeues0 >= 8);
      check_true "restarts counted"
        (Metric.Counter.value (counter "restarts") - restarts0 >= 8);
      let csv = ok_exn "fetch_csv" (Session.fetch_csv session id) in
      let direct = Batch.run ~domains:2 small_config in
      Alcotest.(check string)
        "csv after 8 mid-job worker kills is byte-identical"
        (Gncg_workload.Report.runs_to_csv direct.Batch.runs)
        csv;
      Session.drain session)

let test_pool_hang_times_out () =
  with_metrics (fun () ->
      (* The one spec hangs its worker far beyond the job budget; the
         supervisor must SIGKILL at the deadline and the scheduler must
         classify the job [Timeout] — same verdict as an in-process
         overrun, minutes earlier than the hang. *)
      let config =
        Job.grid ~max_steps:4000 model ~ns:[ 4 ] ~alphas:[ 1.5 ] ~seeds:[ 1 ]
      in
      let session =
        Session.create ~state_dir:(tmp_dir ())
          ~pool:
            ( { Pool.default_config with Pool.breaker_threshold = 1000 },
              chaos_spawn ~hang_p:1.0 ~hang_s:30.0 ~fault_attempts:1 ~seed:7 () )
          ()
      in
      let t0 = Unix.gettimeofday () in
      let id, events =
        submit_and_finish session
          (P.Sweep { config; budget = Some 0.3; retries = None })
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let summary = find_event "summary" events in
      Alcotest.(check int) "the hung job timed out" 1 (jint "timeout" summary);
      Alcotest.(check int) "nothing completed" 0 (jint "completed" summary);
      check_true "sweep itself is done"
        (ok_exn "state" (Session.job_state session id) = P.Done);
      check_true
        (Printf.sprintf "SIGKILL at the deadline, not after the hang (%.1fs)" elapsed)
        (elapsed < 10.0);
      Session.drain session)

let test_pool_breaker_degrades () =
  with_metrics (fun () ->
      let trips0 = Metric.Counter.value (counter "breaker_trips") in
      let degraded0 = Metric.Counter.value (counter "degraded_jobs") in
      (* Kill on EVERY attempt: a restart storm no requeue can outrun.
         The breaker must trip and the session must finish the sweep
         in-process. *)
      let session =
        Session.create ~state_dir:(tmp_dir ())
          ~pool:
            ( {
                Pool.default_config with
                Pool.breaker_threshold = 3;
                breaker_window = 60.0;
                max_requeues = 50;
                backoff_base = 0.01;
              },
              chaos_spawn ~kill_p:1.0 ~fault_attempts:1_000 ~seed:3 () )
          ()
      in
      let id, events = submit_and_finish session sweep_job in
      let summary = find_event "summary" events in
      Alcotest.(check int)
        "every job completed despite the dead pool" 8 (jint "completed" summary);
      check_true "job is done" (ok_exn "state" (Session.job_state session id) = P.Done);
      check_true "breaker tripped"
        (Metric.Counter.value (counter "breaker_trips") - trips0 >= 1);
      check_true "degraded jobs counted"
        (Metric.Counter.value (counter "degraded_jobs") - degraded0 >= 1);
      (match Session.pool_status session with
      | Some status -> check_true "status shows the open breaker" (jbool "breaker_open" status)
      | None -> Alcotest.fail "session has a pool");
      (* Queries degrade too: answered in-process, against the session
         cache. *)
      let _, qevents = submit_and_finish session (eq_job ~seed:1) in
      ignore (find_event "verdict" qevents);
      Alcotest.(check int) "degraded query hit the session cache" 1
        (Session.hosts_cached session);
      Session.drain session)

let test_pool_crash_frames_in_status () =
  with_metrics (fun () ->
      (* A worker that dies on every attempt exhausts its requeues; the
         job fails with the supervisor's crash record, and `client
         status` must show it even though no watcher saw the job die. *)
      let session =
        Session.create ~state_dir:(tmp_dir ())
          ~pool:
            ( {
                Pool.default_config with
                Pool.breaker_threshold = 1000;
                max_requeues = 1;
                backoff_base = 0.01;
              },
              chaos_spawn ~kill_p:1.0 ~fault_attempts:1_000 ~seed:5 () )
          ()
      in
      let { Session.job_id = id; _ } =
        ok_exn "submit" (Session.submit session (eq_job ~seed:9))
      in
      let (_ : P.event list) = collect_events session id in
      (match ok_exn "state" (Session.job_state session id) with
      | P.Failed msg -> check_true "failure names the dead worker" (contains msg "died")
      | s -> Alcotest.failf "expected Failed, got %s" (P.job_state_string s));
      let status = ok_exn "status" (Session.status_json session (Some id)) in
      let crash =
        match Json.member "crash" status with
        | Ok c -> c
        | Error m -> Alcotest.failf "status has no crash record: %s" m
      in
      check_true "crash message preserved"
        (contains
           (Result.get_ok (Result.bind (Json.member "msg" crash) Json.get_string))
           "died mid-job");
      check_true "crash record has a backtrace field"
        (Result.is_ok (Json.member "backtrace" crash));
      Session.drain session)

(* --- stdio transport --------------------------------------------------- *)

let with_stdio_client f =
  let c2s_r, c2s_w = Unix.pipe () in
  let s2c_r, s2c_w = Unix.pipe () in
  let session = Session.create ~state_dir:(tmp_dir ()) ~domains:2 () in
  let server =
    Thread.create
      (fun () ->
        Server.serve_stdio session
          (Unix.in_channel_of_descr c2s_r)
          (Unix.out_channel_of_descr s2c_w))
      ()
  in
  let client =
    Client.of_channels (Unix.in_channel_of_descr s2c_r) (Unix.out_channel_of_descr c2s_w)
  in
  let result = f client in
  ok_exn "shutdown" (Client.shutdown client);
  Thread.join server;
  Client.close client;
  result

let test_stdio_end_to_end () =
  with_stdio_client (fun client ->
      let uptime = ok_exn "ping" (Client.ping client) in
      check_true "uptime is sane" (uptime >= 0.0);
      let id, attached = ok_exn "submit" (Client.submit client sweep_job) in
      check_false "fresh submission" attached;
      let names = ref [] in
      let done_data =
        ok_exn "watch"
          (Client.watch client
             ~on_event:(fun e -> names := e.P.name :: !names)
             id)
      in
      Alcotest.(check string)
        "watch terminates with done" "done"
        (Result.get_ok
           (Result.bind (Json.member "state" done_data) Json.get_string));
      check_true "saw per-job results" (List.mem "job-result" !names);
      check_true "saw the summary" (List.mem "summary" !names);
      let csv = ok_exn "fetch" (Client.fetch_csv client id) in
      let direct = Batch.run ~domains:2 small_config in
      Alcotest.(check string)
        "csv over the wire is byte-identical"
        (Gncg_workload.Report.runs_to_csv direct.Batch.runs)
        csv;
      (* Replay with since: the stream is append-only and seq-stable. *)
      let replayed = ref 0 in
      let (_ : Json.t) =
        ok_exn "re-watch" (Client.watch client ~since:2 ~on_event:(fun _ -> incr replayed) id)
      in
      check_true "replay skipped the first two events"
        (!replayed > 0 && !replayed < List.length !names + 1);
      (* Errors arrive as typed refusals. *)
      (match Client.fetch_csv client "j999" with
      | Error e -> check_true "unknown id refused with Bounds" (e.E.kind = E.Bounds)
      | Ok _ -> Alcotest.fail "unknown job id must be refused");
      ())

let suites =
  [
    ( "serve-protocol",
      [
        case "request round trips" test_request_roundtrips;
        case "response round trips" test_response_roundtrips;
        case "version mismatch rejected" test_version_rejected;
        case "malformed requests refused" test_malformed_requests;
        case "content keys" test_job_keys;
        case "out-of-range jobs refused" test_out_of_range_jobs_refused;
        case "manifest and request refuse the same grids" test_grid_decoders_agree;
        case "cli rejects out-of-range values" test_cli_rejects_out_of_range;
        case "out-of-range models refused" test_out_of_range_models_refused;
      ] );
    ( "serve-json-hostile",
      [
        case "string escaping" test_json_escaping;
        case "deep nesting" test_json_nesting;
        case "lines over 64 KiB" test_json_big_line;
        case "NaN and null" test_json_nan_null;
        case "parse errors" test_json_parse_errors;
      ] );
    ( "serve-session",
      [
        case "eq-check end to end" test_session_eq_check;
        slow_case "sweep matches batch csv" test_session_sweep_matches_batch;
        case "submit validation and drain" test_session_validation;
        case "cancel queued jobs" test_session_cancel;
        slow_case "concurrent sessions" test_concurrent_sessions;
      ] );
    ( "serve-crash",
      [
        slow_case "chaos-crashed workers retried" test_chaos_crashed_workers;
        slow_case "torn journal resumed" test_torn_journal_resume;
      ] );
    ( "serve-pool",
      [
        slow_case "killed worker requeued, csv byte-identical" test_pool_kill_requeue;
        slow_case "hung worker killed at the budget deadline" test_pool_hang_times_out;
        slow_case "restart storm trips the breaker, jobs degrade" test_pool_breaker_degrades;
        slow_case "crash frames surface in status" test_pool_crash_frames_in_status;
        slow_case "healthy pool answers like in-process" test_pool_healthy_matches_in_process;
        slow_case "selfcheck workers match in-process csv" test_pool_selfcheck_matches_in_process;
        slow_case "daemon refuses out-of-range models" test_daemon_refuses_out_of_range_models;
      ] );
    ( "serve-stdio",
      [ slow_case "full protocol over channels" test_stdio_end_to_end ] );
  ]
