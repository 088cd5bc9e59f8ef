(* The runs subsystem: job identity, journal durability, scheduler
   equivalence and failure classification. *)

open Helpers
module R = Gncg_runs
module W = Gncg_workload

let spec_testable =
  Alcotest.testable
    (fun fmt j -> Format.pp_print_string fmt (R.Job.to_canonical j))
    (fun a b -> compare a b = 0)

(* Pairwise distinct specs: every field varies on its own, and two
   alphas differ only in their last bit (0.1 +. 0.2 against 0.3). *)
let sample_specs =
  List.concat_map
    (fun model ->
      List.map
        (fun (rule, max_steps, n, alpha, seed) ->
          R.Job.make ~rule ~max_steps model ~n ~alpha ~seed)
        [
          (R.Job.Greedy_response, 5000, 7, 2.5, 3);
          (R.Job.Best_response, 123, 7, 2.5, 3);
          (R.Job.Add_only, 1, 7, 2.5, 3);
          (R.Job.Greedy_response, 5000, 8, 2.5, 3);
          (R.Job.Greedy_response, 5000, 7, 2.5, 4);
          (R.Job.Greedy_response, 5000, 7, 0.1 +. 0.2, 3);
          (R.Job.Greedy_response, 5000, 7, 0.3, 3);
        ])
    W.Instances.default_models

(* --- Job ---------------------------------------------------------------- *)

(* The journal skips a job by its hash, so distinct specs must never
   share a canonical string or a hash. *)
let test_job_canonical_injective () =
  let distinct xs = List.length (List.sort_uniq compare xs) in
  let count = List.length sample_specs in
  Alcotest.(check int) "the samples are distinct specs" count (distinct sample_specs);
  Alcotest.(check int) "distinct canonical strings" count
    (distinct (List.map R.Job.to_canonical sample_specs));
  Alcotest.(check int) "distinct hashes" count (distinct (List.map R.Job.hash sample_specs))

let test_job_json_roundtrip () =
  List.iter
    (fun spec ->
      let rendered = R.Json.to_string (R.Job.to_json spec) in
      match Result.bind (R.Json.parse rendered) R.Job.of_json with
      | Ok spec' -> Alcotest.check spec_testable "roundtrip" spec spec'
      | Error e -> Alcotest.failf "json roundtrip failed on %s: %s" rendered e)
    sample_specs

(* Specs written while dynamics had two evaluators carry an
   "evaluator" field: either old value is read and ignored, anything
   else is refused. *)
let test_job_json_old_evaluator () =
  let spec = List.hd sample_specs in
  let with_evaluator v =
    match R.Job.to_json spec with
    | R.Json.Obj fields -> R.Json.Obj (fields @ [ ("evaluator", R.Json.Str v) ])
    | _ -> Alcotest.fail "a spec renders as an object"
  in
  List.iter
    (fun v ->
      match R.Job.of_json (with_evaluator v) with
      | Ok spec' -> Alcotest.check spec_testable v spec spec'
      | Error e -> Alcotest.failf "evaluator %S refused: %s" v e)
    [ "reference"; "incremental" ];
  check_true "unknown evaluator refused" (Result.is_error (R.Job.of_json (with_evaluator "fast")))

let test_job_hash_stable_and_distinct () =
  (* The hash is part of the on-disk journal contract: a drift in the
     canonical encoding would silently invalidate every stored journal,
     so pin one golden value. *)
  let spec =
    R.Job.make
      (W.Instances.Tree { wmin = 1.0; wmax = 10.0 })
      ~n:8 ~alpha:2.0 ~seed:1
  in
  Alcotest.(check string) "hash is deterministic" (R.Job.hash spec) (R.Job.hash spec);
  (* Measured before the evaluator choice was removed: the canonical
     string still ends in "eval=incremental;max_steps=5000". *)
  Alcotest.(check string) "pinned hash" "6b49332ea8210452"
    (R.Job.hash (R.Job.make (W.Instances.Tree { wmin = 1.0; wmax = 10.0 }) ~n:5 ~alpha:1.0 ~seed:1));
  let config =
    R.Batch.config
      (W.Instances.Euclid { norm = L2; d = 2; box = 100.0 })
      ~ns:[ 5; 6; 7 ] ~alphas:[ 0.5; 1.0; 2.0 ] ~seeds:[ 1; 2; 3 ]
  in
  let hashes = List.map R.Job.hash (R.Batch.jobs config) in
  Alcotest.(check int) "27 distinct hashes" 27
    (List.length (List.sort_uniq compare hashes));
  (* Hash depends on what is computed, not how the batch was assembled. *)
  let direct =
    R.Job.hash
      (R.Job.make (W.Instances.Euclid { norm = L2; d = 2; box = 100.0 }) ~n:5
         ~alpha:0.5 ~seed:1)
  in
  check_true "grid job and direct job agree" (List.mem direct hashes)

let test_model_of_string_errors () =
  List.iter
    (fun s ->
      match R.Job.model_of_string s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    [ ""; "tree"; "tree(1)"; "euclid(l9,2,100)"; "nope(1,2)"; "tree(a,b)" ]

(* --- Json --------------------------------------------------------------- *)

let test_json_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match R.Json.parse s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "nul" ]

let test_json_nonfinite_to_null () =
  let rendered = R.Json.to_string (R.Json.Obj [ ("x", R.Json.Num Float.nan) ]) in
  Alcotest.(check string) "nan renders as null" "{\"x\":null}" rendered;
  match Result.bind (R.Json.parse rendered) (R.Json.member "x") with
  | Ok R.Json.Null -> ()
  | _ -> Alcotest.fail "null did not reload as Null"

(* --- Journal ------------------------------------------------------------ *)

let small_manifest =
  {
    R.Journal.schema = 1;
    model = "tree(1,10)";
    ns = [ 5 ];
    alphas = [ 1.0; 4.0 ];
    seeds = [ 1; 2 ];
    rule = R.Job.Greedy_response;
    max_steps = 5000;
    jobs = 4;
  }

let fake_run ?(converged = true) ?(ratio = 1.25) seed =
  {
    W.Sweep.model = "tree";
    n = 5;
    alpha = 1.0;
    seed;
    converged;
    steps = 7;
    stable_cost = 10.0;
    opt_cost = 8.0;
    ratio;
    diameter = 3.5;
    stretch = 1.1;
    is_tree = true;
  }

let sample_entries =
  [
    {
      R.Journal.job = "aaaaaaaaaaaaaaaa";
      status = R.Journal.Completed;
      attempts = 1;
      elapsed = 0.25;
      result = Some (fake_run 1);
    };
    {
      R.Journal.job = "bbbbbbbbbbbbbbbb";
      status = R.Journal.Diverged;
      attempts = 1;
      elapsed = 0.5;
      (* NaN ratio exercises the null rendering path end to end. *)
      result = Some (fake_run ~converged:false ~ratio:Float.nan 2);
    };
    {
      R.Journal.job = "cccccccccccccccc";
      status = R.Journal.Timeout;
      attempts = 1;
      elapsed = 60.0;
      result = None;
    };
    {
      R.Journal.job = "dddddddddddddddd";
      status = R.Journal.Crashed "Stack overflow";
      attempts = 3;
      elapsed = 0.01;
      result = None;
    };
  ]

let write_journal path entries =
  let j = R.Journal.create path small_manifest in
  List.iter (R.Journal.append j) entries;
  R.Journal.close j

let test_journal_roundtrip () =
  let path = Filename.temp_file "gncg_test" ".jsonl" in
  write_journal path sample_entries;
  (match R.Journal.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
    Alcotest.(check int) "no dropped lines" 0 loaded.R.Journal.dropped;
    Alcotest.(check int) "manifest job count" 4 loaded.R.Journal.manifest.R.Journal.jobs;
    Alcotest.(check (list string)) "entries survive byte-identically"
      (List.map R.Journal.entry_to_string sample_entries)
      (List.map R.Journal.entry_to_string loaded.R.Journal.entries);
    let terminal = R.Journal.terminal loaded.R.Journal.entries in
    Alcotest.(check int) "terminal = completed + diverged" 2 (Hashtbl.length terminal);
    check_false "timeout is not terminal" (Hashtbl.mem terminal "cccccccccccccccc");
    check_false "crashed is not terminal" (Hashtbl.mem terminal "dddddddddddddddd"));
  Sys.remove path

let test_journal_truncated_tail () =
  let path = Filename.temp_file "gncg_test" ".jsonl" in
  write_journal path sample_entries;
  (* Simulate a crash mid-append: chop the file inside the final line. *)
  let len = ref 0 in
  let ic = open_in_bin path in
  len := in_channel_length ic;
  close_in ic;
  let oc = open_out_gen [ Open_wronly ] 0o644 path in
  Unix.ftruncate (Unix.descr_of_out_channel oc) (!len - 20);
  close_out oc;
  (match R.Journal.load path with
  | Error e -> Alcotest.failf "load of truncated journal failed: %s" e
  | Ok loaded ->
    Alcotest.(check int) "one line dropped" 1 loaded.R.Journal.dropped;
    Alcotest.(check int) "prefix preserved" 3 (List.length loaded.R.Journal.entries));
  Sys.remove path

let test_manifest_jobs_rederivation () =
  match R.Journal.manifest_jobs small_manifest with
  | Error e -> Alcotest.failf "manifest_jobs failed: %s" e
  | Ok jobs ->
    Alcotest.(check int) "grid size" 4 (List.length jobs);
    let expected =
      R.Batch.jobs
        (R.Batch.config
           (W.Instances.Tree { wmin = 1.0; wmax = 10.0 })
           ~ns:[ 5 ] ~alphas:[ 1.0; 4.0 ] ~seeds:[ 1; 2 ])
    in
    Alcotest.(check (list string)) "same hashes, same order"
      (List.map R.Job.hash expected) (List.map R.Job.hash jobs)

(* --- Scheduler ---------------------------------------------------------- *)

let outcome_to_string = function
  | R.Scheduler.Completed r -> Printf.sprintf "completed %d" r
  | R.Scheduler.Diverged r -> Printf.sprintf "diverged %d" r
  | R.Scheduler.Timeout -> "timeout"
  | R.Scheduler.Crashed { msg; _ } -> "crashed " ^ msg

(* Unequal work per job: the heterogeneity work stealing exists for. *)
let lopsided_exec i =
  let rounds = if i mod 5 = 0 then 200_000 else 100 in
  let acc = ref i in
  for k = 1 to rounds do
    acc := (!acc * 31 + k) land 0xFFFF
  done;
  !acc

(* Two inputs: synthetic lopsided work, and a real heterogeneous grid of
   dynamics jobs (n and alpha both vary the run time), whose CSV must not
   depend on the runner. *)
let test_scheduler_matches_sequential () =
  let jobs = List.init 37 Fun.id in
  let diverged r = r mod 3 = 0 in
  let seq = R.Scheduler.run_sequential ~diverged lopsided_exec jobs in
  let par = R.Scheduler.run ~domains:4 ~diverged lopsided_exec jobs in
  Alcotest.(check (list string)) "same outcomes in input order"
    (List.map (fun (i, r) -> Printf.sprintf "%d:%s" i (outcome_to_string r.R.Scheduler.outcome)) seq)
    (List.map (fun (i, r) -> Printf.sprintf "%d:%s" i (outcome_to_string r.R.Scheduler.outcome)) par);
  let grid =
    R.Batch.jobs
      (R.Batch.config
         (W.Instances.General { lo = 1.0; hi = 6.0 })
         ~ns:[ 8; 12 ] ~alphas:[ 0.5; 8.0 ] ~seeds:[ 1; 2 ])
  in
  let csv reports =
    W.Report.runs_to_csv
      (List.map
         (fun (_, r) ->
           match r.R.Scheduler.outcome with
           | R.Scheduler.Completed run | R.Scheduler.Diverged run -> run
           | R.Scheduler.Timeout | R.Scheduler.Crashed _ -> Alcotest.fail "a grid job did not run")
         reports)
  in
  Alcotest.(check string) "Job.execute grid: scheduler csv = sequential csv"
    (csv (R.Scheduler.run_sequential R.Job.execute grid))
    (csv (R.Scheduler.run ~domains:2 R.Job.execute grid))

let test_scheduler_crash_isolation_and_retry () =
  let attempts_seen = Array.init 12 (fun _ -> Atomic.make 0) in
  let exec i =
    let a = Atomic.fetch_and_add attempts_seen.(i) 1 + 1 in
    if i = 5 then failwith "always broken"
    else if i mod 4 = 0 && a <= 2 then failwith "flaky"
    else i * 10
  in
  let results = R.Scheduler.run ~domains:3 ~retries:2 exec (List.init 12 Fun.id) in
  List.iter
    (fun (i, r) ->
      match r.R.Scheduler.outcome with
      | R.Scheduler.Crashed { msg; _ } ->
        Alcotest.(check int) "only the poisoned job crashes" 5 i;
        check_true "crash message preserved"
          (String.length msg > 0 && String.contains msg 'b');
        Alcotest.(check int) "crashed after 1 + 2 retries" 3 r.R.Scheduler.attempts
      | R.Scheduler.Completed v ->
        Alcotest.(check int) "value" (i * 10) v;
        if i mod 4 = 0 then
          Alcotest.(check int) "flaky jobs needed 3 attempts" 3 r.R.Scheduler.attempts
        else Alcotest.(check int) "healthy jobs ran once" 1 r.R.Scheduler.attempts
      | o -> Alcotest.failf "job %d: unexpected %s" i (outcome_to_string o))
    results

let test_scheduler_budget_classifies_timeout () =
  let exec i =
    if i mod 2 = 0 then Unix.sleepf 0.05;
    i
  in
  let results =
    R.Scheduler.run ~domains:2 ~budget:0.02 exec (List.init 6 Fun.id)
  in
  List.iter
    (fun (i, r) ->
      match (i mod 2, r.R.Scheduler.outcome) with
      | 0, R.Scheduler.Timeout -> ()
      | 1, R.Scheduler.Completed v -> Alcotest.(check int) "value" i v
      | _, o -> Alcotest.failf "job %d: unexpected %s" i (outcome_to_string o))
    results

(* --- Ws_deque ----------------------------------------------------------- *)

let test_ws_deque_sequential_semantics () =
  let d = Gncg_util.Ws_deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Gncg_util.Ws_deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Gncg_util.Ws_deque.steal d);
  List.iter (Gncg_util.Ws_deque.push d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Gncg_util.Ws_deque.length d);
  Alcotest.(check (option int)) "pop is LIFO" (Some 4) (Gncg_util.Ws_deque.pop d);
  Alcotest.(check (option int)) "steal is FIFO" (Some 1) (Gncg_util.Ws_deque.steal d);
  Alcotest.(check (option int)) "steal again" (Some 2) (Gncg_util.Ws_deque.steal d);
  Alcotest.(check (option int)) "pop the rest" (Some 3) (Gncg_util.Ws_deque.pop d);
  Alcotest.(check (option int)) "drained" None (Gncg_util.Ws_deque.pop d);
  (* Force the ring buffer to wrap and grow. *)
  for i = 0 to 99 do
    Gncg_util.Ws_deque.push d i;
    if i mod 3 = 0 then ignore (Gncg_util.Ws_deque.steal d)
  done;
  let rec drain acc =
    match Gncg_util.Ws_deque.pop d with None -> acc | Some x -> drain (x :: acc)
  in
  let remaining = drain [] in
  Alcotest.(check int) "conserved" (100 - 34) (List.length remaining);
  Alcotest.(check int) "no duplicates" (List.length remaining)
    (List.length (List.sort_uniq compare remaining))

let test_ws_deque_concurrent_conservation () =
  let d = Gncg_util.Ws_deque.create () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Gncg_util.Ws_deque.push d i
  done;
  let grab take =
    let seen = ref [] in
    let rec go () =
      match take d with
      | Some x ->
        seen := x :: !seen;
        go ()
      | None -> !seen
    in
    go ()
  in
  let thieves =
    List.init 3 (fun _ -> Domain.spawn (fun () -> grab Gncg_util.Ws_deque.steal))
  in
  let popped = grab Gncg_util.Ws_deque.pop in
  let stolen = List.concat_map Domain.join thieves in
  let everything = List.sort compare (popped @ stolen) in
  Alcotest.(check int) "every element taken exactly once" n (List.length everything);
  Alcotest.(check (list int)) "the exact pushed set" (List.init n Fun.id) everything

(* --- Batch (kill-and-resume end to end) --------------------------------- *)

let batch_config =
  R.Batch.config
    (W.Instances.Tree { wmin = 1.0; wmax = 5.0 })
    ~ns:[ 5 ] ~alphas:[ 1.0; 4.0 ] ~seeds:[ 1; 2; 3 ]

let test_batch_kill_and_resume () =
  let full_path = Filename.temp_file "gncg_test" ".jsonl" in
  let cut_path = Filename.temp_file "gncg_test" ".jsonl" in
  let full = R.Batch.run ~domains:2 ~journal:full_path batch_config in
  Alcotest.(check int) "batch size" 6 full.progress.total;
  (* Simulate a kill at job 2/6: keep the manifest and the first two
     result lines, then resume from the prefix. *)
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin full_path In_channel.input_all)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "journal has manifest + 6 entries" 7 (List.length lines);
  let prefix = List.filteri (fun i _ -> i < 3) lines in
  Out_channel.with_open_bin cut_path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) prefix);
  (match R.Batch.resume ~domains:2 ~journal:cut_path () with
  | Error e -> Alcotest.failf "resume failed: %s" e
  | Ok resumed ->
    Alcotest.(check int) "only the 4 missing jobs re-executed" 4
      resumed.progress.executed;
    Alcotest.(check int) "2 skipped" 2 resumed.progress.skipped;
    Alcotest.(check string) "merged runs identical to the uninterrupted batch"
      (W.Report.runs_to_csv full.runs)
      (W.Report.runs_to_csv resumed.runs));
  (* Per-job byte identity of the journaled results. *)
  let results_of path =
    match R.Journal.load path with
    | Error e -> Alcotest.failf "reload failed: %s" e
    | Ok loaded ->
      List.sort compare
        (List.map
           (fun (e : R.Journal.entry) ->
             (e.job, Option.map (fun r -> R.Json.to_string (R.Journal.run_to_json r)) e.result))
           loaded.R.Journal.entries)
  in
  Alcotest.(check (list (pair string (option string))))
    "per-hash results byte-identical across kill+resume" (results_of full_path)
    (results_of cut_path);
  Sys.remove full_path;
  Sys.remove cut_path

(* Journals as the engine wrote them while dynamics had two evaluators:
   the manifest names its evaluator and the one job of the grid is
   complete.  The entry of the "incremental" journal is keyed by the hash
   the job still has, so a resume skips it.  The "reference" journal's
   entry is keyed by "eval=reference", which no job hashes to any more:
   a resume re-executes the job and gets the same row. *)
let old_journal ~evaluator ~key =
  Printf.sprintf
    {|{"gncg-journal":1,"model":"tree(1,10)","ns":[5],"alphas":[1],"seeds":[1],"rule":"greedy","evaluator":"%s","max_steps":5000,"jobs":1}
{"job":"%s","status":"completed","attempts":1,"elapsed":0.00080084800720214844,"result":{"model":"tree","n":5,"alpha":1,"seed":1,"converged":true,"steps":3,"stable_cost":245.11430743754863,"opt_cost":245.11430743754863,"ratio":1,"diameter":20.300502638571928,"stretch":1,"is_tree":true}}
|}
    evaluator key

let test_old_journal_resumes () =
  let fresh =
    W.Report.runs_to_csv
      [ R.Job.execute (R.Job.make (W.Instances.Tree { wmin = 1.0; wmax = 10.0 }) ~n:5 ~alpha:1.0 ~seed:1) ]
  in
  List.iter
    (fun (evaluator, key, executed) ->
      let path = Filename.temp_file "gncg_test" ".jsonl" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (old_journal ~evaluator ~key));
      (match R.Batch.resume ~journal:path () with
      | Error e -> Alcotest.failf "%s journal: resume failed: %s" evaluator e
      | Ok s ->
        Alcotest.(check int) (evaluator ^ ": re-executed") executed s.progress.executed;
        Alcotest.(check int) (evaluator ^ ": completed") 1 s.progress.completed;
        Alcotest.(check string) (evaluator ^ ": same row") fresh (W.Report.runs_to_csv s.runs));
      Sys.remove path)
    [ ("incremental", "6b49332ea8210452", 0); ("reference", "8568c7b329bdc6b5", 1) ]

let test_batch_status () =
  let path = Filename.temp_file "gncg_test" ".jsonl" in
  let _ = R.Batch.run ~journal:path batch_config in
  (match R.Batch.status ~journal:path with
  | Error e -> Alcotest.failf "status failed: %s" e
  | Ok (manifest, progress, crashes) ->
    Alcotest.(check int) "manifest jobs" 6 manifest.R.Journal.jobs;
    Alcotest.(check int) "all terminal" 6 progress.R.Batch.skipped;
    Alcotest.(check int) "status executes nothing" 0 progress.R.Batch.executed;
    Alcotest.(check int) "no crash details on a clean batch" 0 (List.length crashes));
  Sys.remove path

let test_batch_status_surfaces_crashes () =
  (* A batch whose executor always throws journals six Crashed entries;
     status must both count them and surface the per-job detail
     (message + backtrace when recorded). *)
  let path = Filename.temp_file "gncg_test" ".jsonl" in
  let boom _ = failwith "injected executor crash" in
  let summary = R.Batch.run ~journal:path ~exec:boom batch_config in
  Alcotest.(check int) "all six crashed" 6 summary.progress.crashed;
  (match R.Batch.status ~journal:path with
  | Error e -> Alcotest.failf "status failed: %s" e
  | Ok (_, progress, crashes) ->
    Alcotest.(check int) "crashed count" 6 progress.R.Batch.crashed;
    Alcotest.(check int) "one detail per crashed job" 6 (List.length crashes);
    List.iter
      (fun (hash, detail) ->
        Alcotest.(check int) "hash is 16 hex digits" 16 (String.length hash);
        check_true "detail carries the exception message"
          (contains detail "injected executor crash"))
      crashes);
  Sys.remove path

let suites =
  [
    ( "runs",
      [
        case "job canonical injective" test_job_canonical_injective;
        case "job json roundtrip" test_job_json_roundtrip;
        case "job json ignores an old evaluator" test_job_json_old_evaluator;
        case "job hashes stable & distinct" test_job_hash_stable_and_distinct;
        case "model parse errors" test_model_of_string_errors;
        case "json rejects garbage" test_json_parse_rejects_garbage;
        case "json non-finite -> null" test_json_nonfinite_to_null;
        case "journal roundtrip" test_journal_roundtrip;
        case "journal tolerates a truncated tail" test_journal_truncated_tail;
        case "manifest re-derives the job list" test_manifest_jobs_rederivation;
        case "scheduler = sequential runner" test_scheduler_matches_sequential;
        case "scheduler isolates crashes, bounded retry"
          test_scheduler_crash_isolation_and_retry;
        case "scheduler budget -> timeout" test_scheduler_budget_classifies_timeout;
        case "ws_deque sequential semantics" test_ws_deque_sequential_semantics;
        case "ws_deque concurrent conservation" test_ws_deque_concurrent_conservation;
        case "batch kill-and-resume" test_batch_kill_and_resume;
        case "old-format journal resumes" test_old_journal_resumes;
        case "batch status" test_batch_status;
        case "batch status surfaces crash details" test_batch_status_surfaces_crashes;
      ] );
  ]
