(* Chaos harness properties: fault injection is deterministic, the
   scheduler classifies injected faults exactly as the plan's oracle
   predicts, result order survives chaos, and every journal-corruption
   shape resumes by re-executing exactly the destroyed jobs. *)

open Helpers
module R = Gncg_runs
module C = Gncg_runs.Chaos

let key_of_int = string_of_int

(* --- classification ----------------------------------------------------- *)

(* Every job's outcome must match the pure oracle: Crash on attempt 1
   with no retries -> Crashed; anything else -> Completed. *)
let chaos_classification =
  QCheck.Test.make ~count:30 ~name:"chaos: classification matches the fault oracle"
    QCheck.(pair small_nat (int_range 10 40))
    (fun (seed, jobs) ->
      let plan = C.plan ~seed ~crash_p:0.35 ~fault_attempts:1 () in
      let exec = C.wrap plan ~key:key_of_int (fun i -> i * 3) in
      let results = R.Scheduler.run ~domains:1 exec (List.init jobs Fun.id) in
      List.for_all
        (fun (i, r) ->
          match (C.decide plan ~key:(key_of_int i) ~attempt:1, r.R.Scheduler.outcome) with
          | Some C.Crash, R.Scheduler.Crashed _ -> true
          | (None | Some (C.Delay _) | Some C.Corrupt_result), R.Scheduler.Completed v ->
            v = i * 3
          | _ -> false)
        results)

(* With retries >= fault_attempts every chaos job must eventually
   complete, and the recorded attempts must match the oracle. *)
let chaos_retries_recover =
  QCheck.Test.make ~count:30 ~name:"chaos: retries outlast bounded faults"
    QCheck.small_nat
    (fun seed ->
      let plan = C.plan ~seed ~crash_p:0.5 ~fault_attempts:2 () in
      let exec = C.wrap plan ~key:key_of_int Fun.id in
      let results = R.Scheduler.run ~domains:1 ~retries:2 exec (List.init 25 Fun.id) in
      List.for_all
        (fun (i, r) ->
          let crashes_at a = C.decide plan ~key:(key_of_int i) ~attempt:a = Some C.Crash in
          let expected_attempts =
            if crashes_at 1 then if crashes_at 2 then 3 else 2 else 1
          in
          match r.R.Scheduler.outcome with
          | R.Scheduler.Completed v ->
            v = i && r.R.Scheduler.attempts = expected_attempts
          | _ -> false)
        results)

(* Chaos delays perturb execution order; the report list must stay in
   input order regardless, on the parallel scheduler. *)
let chaos_preserves_order =
  QCheck.Test.make ~count:10 ~name:"chaos: parallel results stay in input order"
    QCheck.small_nat
    (fun seed ->
      let plan = C.plan ~seed ~delay_p:0.4 ~delay_s:0.002 ~crash_p:0.2 () in
      let exec = C.wrap plan ~key:key_of_int Fun.id in
      let jobs = List.init 30 Fun.id in
      let results = R.Scheduler.run ~domains:4 exec jobs in
      List.map fst results = jobs)

(* Corrupt_result flows through the caller's corrupt hook and lands in
   the diverged classification when the predicate looks for it. *)
let test_corrupt_result_classified () =
  let plan = C.plan ~seed:5 ~corrupt_p:0.5 () in
  let exec = C.wrap plan ~key:key_of_int ~corrupt:(fun _ -> Float.nan) float_of_int in
  let results =
    R.Scheduler.run ~domains:1 ~diverged:Float.is_nan exec (List.init 20 Fun.id)
  in
  List.iter
    (fun (i, r) ->
      match (C.decide plan ~key:(key_of_int i) ~attempt:1, r.R.Scheduler.outcome) with
      | Some C.Corrupt_result, R.Scheduler.Diverged v ->
        check_true "corrupted to NaN" (Float.is_nan v)
      | Some C.Corrupt_result, o ->
        Alcotest.failf "job %d: corrupt result classified %s" i
          (match o with
          | R.Scheduler.Completed _ -> "completed"
          | R.Scheduler.Timeout -> "timeout"
          | R.Scheduler.Crashed _ -> "crashed"
          | R.Scheduler.Diverged _ -> "diverged")
      | _, R.Scheduler.Completed v -> check_float "clean value" (float_of_int i) v
      | _, _ -> Alcotest.failf "job %d: unexpected classification" i)
    results

(* Crash reports carry a backtrace when recording is on. *)
let test_crash_carries_backtrace () =
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was)
    (fun () ->
      let results =
        R.Scheduler.run ~domains:1
          (fun _ -> failwith "kaboom")
          [ 0 ]
      in
      match results with
      | [ (_, { R.Scheduler.outcome = Crashed { msg; backtrace }; _ }) ] ->
        check_true "message kept" (String.length msg > 0);
        check_true "backtrace recorded" (String.length backtrace > 0)
      | _ -> Alcotest.fail "expected one crashed report")

(* --- a whole batch under chaos ------------------------------------------- *)

(* The same plan wrapped around Job.execute at the Batch level: with no
   retries every crash the oracle predicts surfaces as Crashed; one retry
   outlasts fault_attempts = 1, so nothing crashes and every predicted
   crash costs at least one retry. *)
let test_batch_crashes_match_plan () =
  let config =
    R.Job.grid
      (Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 5.0 })
      ~ns:[ 5; 6 ] ~alphas:[ 1.0; 3.0 ] ~seeds:[ 1; 2; 3 ]
  in
  let plan = C.plan ~seed:42 ~crash_p:0.4 ~fault_attempts:1 () in
  let predicted =
    List.length
      (List.filter
         (fun j -> C.decide plan ~key:(R.Job.hash j) ~attempt:1 = Some C.Crash)
         (R.Job.jobs config))
  in
  check_true "the plan injects at least one crash" (predicted > 0);
  let run retries =
    (R.Batch.run ~retries ~exec:(C.wrap plan ~key:R.Job.hash R.Job.execute) config)
      .progress
  in
  Alcotest.(check int) "no retries: crashed = predicted" predicted (run 0).crashed;
  let retried = run 1 in
  Alcotest.(check int) "one retry: nothing crashes" 0 retried.crashed;
  check_true "one retry: retries >= predicted" (retried.retries >= predicted)

(* --- journal corruption -------------------------------------------------- *)

let small_config =
  R.Job.grid
    (Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 5.0 })
    ~ns:[ 5 ] ~alphas:[ 1.0; 4.0 ] ~seeds:[ 1; 2 ]

let with_journal f =
  let path = Filename.temp_file "gncg_chaos_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let run_and_corrupt corrupt =
  with_journal (fun journal ->
      let first = R.Batch.run ~journal small_config in
      Alcotest.(check int) "all jobs terminal" 4 first.progress.completed;
      corrupt journal;
      match R.Batch.resume ~journal () with
      | Error msg -> Alcotest.failf "resume after corruption failed: %s" msg
      | Ok resumed ->
        check_true "resumed runs equal the uninterrupted batch"
          (Gncg_workload.Report.runs_to_csv resumed.runs
          = Gncg_workload.Report.runs_to_csv first.runs);
        resumed.progress.executed)

let test_truncated_last_line_resumes () =
  Alcotest.(check int) "exactly the torn job re-executes" 1
    (run_and_corrupt C.truncate_last_line)

let test_garbage_line_skipped () =
  Alcotest.(check int) "garbage drops no terminal entries" 0
    (run_and_corrupt C.append_garbage_line)

let test_interleaved_writes_resume () =
  Alcotest.(check int) "both torn jobs re-execute" 2
    (run_and_corrupt C.interleave_partial_writes)

(* QCheck form of the resume invariant: truncate after a prefix of k
   terminal entries; resume must execute exactly (total - k) jobs and
   reproduce the uninterrupted results. *)
let truncated_journal_resume =
  QCheck.Test.make ~count:8 ~name:"chaos: truncated journal resumes the exact complement"
    (QCheck.int_range 0 3)
    (fun keep ->
      with_journal (fun journal ->
          let first = R.Batch.run ~journal small_config in
          (* Rewrite the journal to the manifest + [keep] entries, then
             tear the next line in half. *)
          let lines =
            String.split_on_char '\n' (In_channel.with_open_bin journal In_channel.input_all)
          in
          let manifest, entries =
            match lines with m :: es -> (m, List.filter (fun l -> l <> "") es) | [] -> ("", [])
          in
          let kept = List.filteri (fun i _ -> i < keep) entries in
          let torn =
            match List.nth_opt entries keep with
            | Some l -> [ String.sub l 0 (String.length l / 2) ]
            | None -> []
          in
          Out_channel.with_open_bin journal (fun oc ->
              List.iter
                (fun l -> Out_channel.output_string oc (l ^ "\n"))
                ((manifest :: kept) @ torn));
          match R.Batch.resume ~journal () with
          | Error _ -> false
          | Ok resumed ->
            resumed.progress.executed = 4 - keep
            && Gncg_workload.Report.runs_to_csv resumed.runs
               = Gncg_workload.Report.runs_to_csv first.runs))

(* Determinism: the same plan makes the same decisions, a different seed
   eventually makes different ones. *)
let test_decide_deterministic () =
  let p1 = C.plan ~seed:11 ~crash_p:0.3 ~delay_p:0.3 () in
  let p2 = C.plan ~seed:11 ~crash_p:0.3 ~delay_p:0.3 () in
  for i = 0 to 99 do
    check_true "same seed, same decision"
      (C.decide p1 ~key:(key_of_int i) ~attempt:1
      = C.decide p2 ~key:(key_of_int i) ~attempt:1)
  done;
  let p3 = C.plan ~seed:12 ~crash_p:0.3 ~delay_p:0.3 () in
  check_true "different seed differs somewhere"
    (List.exists
       (fun i ->
         C.decide p1 ~key:(key_of_int i) ~attempt:1
         <> C.decide p3 ~key:(key_of_int i) ~attempt:1)
       (List.init 100 Fun.id))

let suites =
  [
    ( "chaos",
      [
        QCheck_alcotest.to_alcotest chaos_classification;
        QCheck_alcotest.to_alcotest chaos_retries_recover;
        QCheck_alcotest.to_alcotest chaos_preserves_order;
        case "corrupt results classified via predicate" test_corrupt_result_classified;
        case "crash reports carry backtraces" test_crash_carries_backtrace;
        case "truncated last line: 1 job re-executes" test_truncated_last_line_resumes;
        case "garbage line: 0 jobs re-execute" test_garbage_line_skipped;
        case "interleaved writes: 2 jobs re-execute" test_interleaved_writes_resume;
        QCheck_alcotest.to_alcotest truncated_journal_resume;
        case "fault decisions are seed-deterministic" test_decide_deterministic;
        case "batch crashes match the plan, retries recover" test_batch_crashes_match_plan;
      ] );
  ]
