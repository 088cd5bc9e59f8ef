(* gncg: command-line front end for the Geometric Network Creation Games
   engine.

   Subcommands:
     gncg sweep          — sweep run over one n and one alpha, unjournaled
     gncg sweep run      — batch sweep, optionally journaled (durable, parallel)
     gncg sweep resume   — finish an interrupted journal-backed sweep
     gncg sweep status   — inspect a journal without running anything
     gncg construct      — evaluate a paper construction
     gncg cycles         — print the stored FIP-violation certificates
     gncg br             — best-response engines on one random instance

   Error-path convention: diagnostics go to stderr, then [exit 1];
   stdout carries only the requested table/CSV/JSON payload. *)

open Cmdliner

let model_conv =
  let parse s =
    match List.assoc_opt s Gncg_workload.Instances.named_models with
    | Some model -> Ok model
    | None -> Error (`Msg (Printf.sprintf "unknown model %S" s))
  in
  Arg.conv ~docv:"MODEL" (parse, fun fmt _ -> Format.fprintf fmt "<model>")

let model_arg =
  Arg.(value
       & opt model_conv (Gncg_workload.Instances.Euclid { norm = L2; d = 2; box = 100.0 })
       & info [ "model" ]
           ~doc:(String.concat " | " (List.map fst Gncg_workload.Instances.named_models)))

(* [base] narrowed by a range check: an out-of-range value is a usage
   error, reported before any work starts. *)
let checked base check =
  let parse s =
    match Arg.conv_parser base s with
    | Ok x -> Result.map_error (fun m -> `Msg m) (check x)
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int =
  checked Arg.int (fun d -> if d >= 1 then Ok d else Error "expected a positive integer")

let nonneg_int =
  checked Arg.int (fun k -> if k >= 0 then Ok k else Error "expected a non-negative integer")

(* The engine's own rules for instance sizes and edge prices, shared with
   the serve protocol. *)
let n_conv = checked Arg.int Gncg.Host.check_n

let alpha_conv = checked Arg.float Gncg.Host.check_alpha

let alpha_arg = Arg.(value & opt alpha_conv 2.0 & info [ "alpha" ] ~doc:"edge price factor")

let n_arg = Arg.(value & opt n_conv 8 & info [ "n" ] ~doc:"number of agents")

let seeds_arg = Arg.(value & opt nonneg_int 5 & info [ "seeds" ] ~doc:"seeded repetitions")

(* Execution/observability flags shared by every verb: one argument-spec
   table instead of per-verb copies.  Each verb declares which of the
   flags it [accepts]; the others are rejected loudly instead of being
   silently dropped (sweep status used to swallow --domains). *)
module Common = struct
  type t = {
    domains : int option;
    trace : string option;
    profile : bool;
    selfcheck : int option;
  }

  type flag = Domains | Trace | Profile | Selfcheck

  let term =
    let domains_arg =
      Arg.(value
           & opt (some positive_int) None
           & info [ "domains" ]
               ~doc:
                 "domain count for the multicore scans and the sweep scheduler; 1 \
                  runs sequentially (default: the hardware-recommended count)")
    in
    let trace_arg =
      Arg.(value
           & opt (some string) None
           & info [ "trace" ] ~docv:"FILE"
               ~doc:"write a JSONL observability trace (spans + counters) to FILE")
    in
    let profile_arg =
      Arg.(value
           & flag
           & info [ "profile" ]
               ~doc:"record engine counters and print a summary table to stderr on exit")
    in
    let selfcheck_arg =
      Arg.(value
           & opt (some positive_int) None
           & info [ "selfcheck" ] ~docv:"N"
               ~doc:
                 "drift sentinel cadence: cross-check the incremental distance \
                  matrix against fresh Dijkstra every N network mutations and \
                  self-heal on mismatch (default: off)")
    in
    Term.(const (fun domains trace profile selfcheck -> { domains; trace; profile; selfcheck })
          $ domains_arg $ trace_arg $ profile_arg $ selfcheck_arg)

  (* Validates the provided flags against the verb's accept list, wires
     up tracing/profiling, and resolves the execution strategy: [--domains]
     sizes it, and without it every verb runs on the default domain
     count. *)
  let setup ~verb ~accepts c =
    let reject flag =
      Printf.eprintf "gncg %s does not accept %s\n" verb flag;
      exit 1
    in
    if c.domains <> None && not (List.mem Domains accepts) then reject "--domains";
    if c.trace <> None && not (List.mem Trace accepts) then reject "--trace";
    if c.profile && not (List.mem Profile accepts) then reject "--profile";
    if c.selfcheck <> None && not (List.mem Selfcheck accepts) then reject "--selfcheck";
    Printexc.record_backtrace true;
    Gncg_util.Exec.set_default_domains c.domains;
    (match c.selfcheck with
    | Some n -> Gncg_graph.Incr_apsp.set_default_selfcheck n
    | None -> ());
    (match c.trace with Some path -> Gncg_obs.Obs.trace_to_file path | None -> ());
    if c.profile then begin
      Gncg_obs.Obs.set_profiling true;
      at_exit (fun () -> Gncg_obs.Obs.print_summary stderr)
    end;
    Gncg_util.Exec.Par { domains = c.domains }

  let all = [ Domains; Trace; Profile; Selfcheck ]
end

(* --- sweep ----------------------------------------------------------- *)

(* Validate the output format up front: diagnostics must precede the work,
   not follow a sweep that is about to be thrown away. *)
let renderer_of_format = function
  | "table" -> Some Gncg_workload.Report.print_runs
  | "csv" -> Some (fun runs -> print_string (Gncg_workload.Report.runs_to_csv runs))
  | "json" -> Some (fun runs -> print_endline (Gncg_workload.Report.runs_to_json runs))
  | _ -> None

let require_renderer format =
  match renderer_of_format format with
  | Some render -> render
  | None ->
    Printf.eprintf "unknown format %S (table | csv | json)\n" format;
    exit 1

let format_arg =
  Arg.(value & opt string "table" & info [ "format" ] ~doc:"table | csv | json")

let ns_arg =
  Arg.(value & opt (list n_conv) [ 8 ] & info [ "ns" ] ~doc:"comma-separated agent counts")

let alphas_arg =
  Arg.(value
       & opt (list alpha_conv) [ 2.0 ]
       & info [ "alphas" ] ~doc:"comma-separated edge price factors")

let rule_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Gncg_runs.Job.rule_of_string s) in
  Arg.conv ~docv:"RULE" (parse, fun fmt r -> Format.pp_print_string fmt (Gncg_runs.Job.rule_to_string r))

let rule_arg =
  Arg.(value
       & opt rule_conv Gncg_runs.Job.default_rule
       & info [ "rule" ] ~doc:"best | greedy | add-only")

let max_steps_arg =
  Arg.(value
       & opt positive_int Gncg_runs.Job.default_max_steps
       & info [ "max-steps" ] ~doc:"dynamics step budget")

let journal_arg required_for =
  let doc = Printf.sprintf "JSONL journal path (%s)" required_for in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH" ~doc)

let require_journal = function
  | Some path -> path
  | None ->
    prerr_endline "a --journal path is required for this subcommand";
    exit 1

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> Ok x
    | _ -> Error (`Msg "expected a positive number of seconds")
  in
  Arg.conv (parse, fun fmt x -> Format.fprintf fmt "%g" x)

let budget_arg =
  Arg.(value
       & opt (some positive_float) None
       & info [ "budget" ] ~docv:"SECONDS"
           ~doc:"per-job wall-clock budget; over-budget jobs are recorded as timeouts")

let retries_arg =
  Arg.(value & opt nonneg_int 0 & info [ "retries" ] ~doc:"extra attempts for crashed jobs")

(* The summary line goes to stderr, the rows to stdout; a timed-out or
   crashed job has no row, so the exit status says the output is
   incomplete. *)
let finish ~label render (s : Gncg_runs.Batch.summary) =
  Format.eprintf "%s: %a@." label Gncg_runs.Batch.pp_progress s.progress;
  render s.runs;
  if s.progress.timeout + s.progress.crashed > 0 then exit 1

let sweep_run model ns alphas seeds rule max_steps format journal budget retries common
    =
  let render = require_renderer format in
  let exec = Common.setup ~verb:"sweep" ~accepts:Common.all common in
  let grid =
    Gncg_runs.Job.grid ~rule ~max_steps model ~ns ~alphas
      ~seeds:(List.init seeds (fun s -> s + 1))
  in
  let summary =
    Gncg_runs.Batch.run ~domains:(Gncg_util.Exec.domain_count exec) ?budget ~retries
      ?journal grid
  in
  finish
    ~label:(match journal with Some p -> "journal " ^ p | None -> "sweep")
    render summary

(* Bare [gncg sweep]: [sweep run] over one n and one alpha, unjournaled. *)
let sweep model n alpha seeds format common =
  sweep_run model [ n ] [ alpha ] seeds Gncg_runs.Job.default_rule
    Gncg_runs.Job.default_max_steps format None None 0 common

let sweep_resume journal format budget retries common =
  let render = require_renderer format in
  let path = require_journal journal in
  let exec = Common.setup ~verb:"sweep resume" ~accepts:Common.all common in
  match
    Gncg_runs.Batch.resume ~domains:(Gncg_util.Exec.domain_count exec) ?budget ~retries
      ~journal:path ()
  with
  | Ok summary -> finish ~label:("journal " ^ path) render summary
  | Error msg ->
    Printf.eprintf "resume failed: %s\n" msg;
    exit 1

let sweep_status journal common =
  let (_ : Gncg_util.Exec.t) = Common.setup ~verb:"sweep status" ~accepts:[] common in
  let path = require_journal journal in
  match Gncg_runs.Batch.status ~journal:path with
  | Ok ((grid : Gncg_runs.Job.grid), progress, crashes) ->
    Printf.printf "journal            %s\n" path;
    Printf.printf "model              %s\n" (Gncg_runs.Job.model_to_string grid.model);
    Printf.printf "rule               %s\n" (Gncg_runs.Job.rule_to_string grid.rule);
    Printf.printf "grid               ns=%s alphas=%s seeds=%s\n"
      (String.concat "," (List.map string_of_int grid.ns))
      (String.concat "," (List.map (Printf.sprintf "%g") grid.alphas))
      (String.concat "," (List.map string_of_int grid.seeds));
    Printf.printf "jobs               %d\n" progress.Gncg_runs.Batch.total;
    Printf.printf "terminal           %d (completed %d, diverged %d)\n"
      progress.Gncg_runs.Batch.skipped progress.Gncg_runs.Batch.completed
      progress.Gncg_runs.Batch.diverged;
    Printf.printf "pending            %d (of which timeout %d, crashed %d)\n"
      (progress.Gncg_runs.Batch.total - progress.Gncg_runs.Batch.skipped)
      progress.Gncg_runs.Batch.timeout progress.Gncg_runs.Batch.crashed;
    (* The journal embeds the crash message (and, when backtrace
       recording was on, the frames); surface both instead of a bare
       count so a post-mortem needs no journal spelunking. *)
    List.iter
      (fun (hash, detail) ->
        match String.split_on_char '\n' detail with
        | [] -> ()
        | msg :: frames ->
          Printf.printf "crashed            %s: %s\n" hash msg;
          List.iter
            (fun frame ->
              if String.trim frame <> "" then Printf.printf "                     %s\n" frame)
            frames)
      crashes
  | Error msg ->
    Printf.eprintf "status failed: %s\n" msg;
    exit 1

let sweep_run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"run a batch sweep through the runs scheduler, \
                          optionally journaled for resume")
    Term.(const sweep_run $ model_arg $ ns_arg $ alphas_arg $ seeds_arg $ rule_arg
          $ max_steps_arg $ format_arg
          $ journal_arg "optional: enables kill-and-resume"
          $ budget_arg $ retries_arg $ Common.term)

let sweep_resume_cmd =
  Cmd.v
    (Cmd.info "resume" ~doc:"finish an interrupted journal-backed sweep; \
                             already-journaled jobs are not re-executed")
    Term.(const sweep_resume
          $ journal_arg "required" $ format_arg $ budget_arg $ retries_arg $ Common.term)

let sweep_status_cmd =
  Cmd.v
    (Cmd.info "status" ~doc:"show a journal's manifest and completion counts")
    Term.(const sweep_status $ journal_arg "required" $ Common.term)

let sweep_bare_term =
  Term.(const sweep $ model_arg $ n_arg $ alpha_arg $ seeds_arg $ format_arg
        $ Common.term)

let sweep_cmd =
  Cmd.group ~default:sweep_bare_term
    (Cmd.info "sweep" ~doc:"run response dynamics over random instances")
    [ sweep_run_cmd; sweep_resume_cmd; sweep_status_cmd ]

(* --- construct -------------------------------------------------------- *)

(* The constructions [construct] evaluates, each as its host, its
   equilibrium profile, an optimum network and the extra report rows;
   [--save] writes the host and profile of the same table entry. *)
type construction = {
  title : string;
  host : Gncg.Host.t;
  ne : Gncg.Strategy.t;
  opt : Gncg_graph.Wgraph.t;
  extra : (string * float) list;
}

let construction which ~alpha ~n =
  let module C = Gncg_constructions in
  let entry title host ne opt extra = Some { title; host; ne; opt; extra } in
  match which with
  | "thm8" ->
    entry "Thm 8 star-of-stars (alpha=1 variant)"
      (C.Thm8_onetwo.host Alpha_one ~alpha:1.0 ~nb_centers:n ~nb_leaves:n)
      (C.Thm8_onetwo.ne_profile Alpha_one ~nb_centers:n ~nb_leaves:n)
      (C.Thm8_onetwo.opt_network Alpha_one ~nb_centers:n ~nb_leaves:n)
      [ ("limit", 1.5) ]
  | "thm15" ->
    entry "Thm 15 tree star" (C.Thm15_tree_star.host ~alpha ~n)
      (C.Thm15_tree_star.ne_profile ~alpha ~n)
      (C.Thm15_tree_star.opt_network ~alpha ~n)
      [ ("limit (a+2)/2", Gncg.Quality.metric_upper alpha) ]
  | "thm18" ->
    entry "Thm 18 four points" (C.Thm18_fourpoint.host ~alpha)
      (C.Thm18_fourpoint.ne_profile ~alpha)
      (C.Thm18_fourpoint.opt_network ~alpha)
      [ ("closed form", C.Thm18_fourpoint.ratio_formula ~alpha) ]
  | "thm19" ->
    let d = max 1 (n / 2) in
    entry (Printf.sprintf "Thm 19 l1 cross (d=%d)" d) (C.Thm19_cross.host ~alpha ~d)
      (C.Thm19_cross.ne_profile ~alpha ~d)
      (C.Thm19_cross.opt_network ~alpha ~d)
      [ ("closed form", C.Thm19_cross.ratio_formula ~alpha ~d) ]
  | "lemma8" ->
    entry "Lemma 8 line" (C.Lemma8_path.host ~alpha ~n)
      (C.Lemma8_path.ne_profile ~alpha ~n)
      (C.Lemma8_path.opt_network ~alpha ~n)
      []
  | _ -> None

let which_arg =
  Arg.(required
       & pos 0 (some string) None
       & info [] ~docv:"WHICH" ~doc:"thm8 | thm15 | thm18 | thm19 | lemma8 | thm20")

let construct which alpha n save common =
  let (_ : Gncg_util.Exec.t) =
    Common.setup ~verb:"construct" ~accepts:Common.all common
  in
  match construction which ~alpha ~n with
  | Some c ->
    let ne_cost = Gncg.Cost.social_cost c.host c.ne in
    let opt_cost = Gncg.Cost.network_social_cost c.host c.opt in
    Printf.printf "%s (alpha=%g, agents=%d)\n" c.title alpha (Gncg.Host.n c.host);
    Printf.printf "  equilibrium cost  %.4f\n" ne_cost;
    Printf.printf "  optimum cost      %.4f\n" opt_cost;
    Printf.printf "  ratio             %.4f\n" (ne_cost /. opt_cost);
    List.iter (fun (k, v) -> Printf.printf "  %-17s %.4f\n" k v) c.extra;
    Option.iter
      (fun prefix ->
        Gncg.Serialize.host_to_file (prefix ^ ".host") c.host;
        Gncg.Serialize.profile_to_file (prefix ^ ".profile") c.ne;
        Printf.printf "wrote %s.host and %s.profile\n" prefix prefix)
      save
  | None when which = "thm20" ->
    Printf.printf "Thm 20 triangle (alpha=%g)\n" alpha;
    Printf.printf "  actual NE/OPT     %.4f\n" (Gncg_constructions.Thm20_cycle.cost_ratio ~alpha);
    Printf.printf "  per-pair sigma    %.4f\n"
      (Gncg_constructions.Thm20_cycle.sigma_heavy_pair ~alpha);
    if save <> None then begin
      Printf.eprintf "--save is not supported for %S\n" which;
      exit 1
    end
  | None ->
    Printf.eprintf "unknown construction %S\n" which;
    exit 1

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save" ] ~docv:"PREFIX" ~doc:"write PREFIX.host and PREFIX.profile")

let construct_cmd =
  Cmd.v
    (Cmd.info "construct" ~doc:"evaluate a lower-bound construction of the paper")
    Term.(const construct $ which_arg $ alpha_arg $ n_arg $ save_arg $ Common.term)

(* --- check ---------------------------------------------------------------- *)

let check_files host_path profile_path common =
  let exec = Common.setup ~verb:"check" ~accepts:Common.all common in
  let or_die = function
    | Ok x -> x
    | Error e ->
      Printf.eprintf "%s\n" (Gncg_util.Gncg_error.to_string e);
      exit 1
  in
  let host = or_die (Gncg.Serialize.host_of_file_result host_path) in
  let profile = or_die (Gncg.Serialize.profile_of_file_result profile_path) in
  or_die (Gncg.Network.validate host profile);
  Printf.printf "agents            %d\n" (Gncg.Host.n host);
  Printf.printf "metric host       %b\n" (Gncg_metric.Metric.is_metric (Gncg.Host.metric host));
  Printf.printf "social cost       %.4f\n" (Gncg.Cost.social_cost host profile);
  Printf.printf "add-only stable   %b\n" (Gncg.Equilibrium.is_ae ~exec host profile);
  Printf.printf "greedy stable     %b\n" (Gncg.Equilibrium.is_ge ~exec host profile);
  if Gncg.Host.n host <= 12 then begin
    match Gncg.Equilibrium.certify ~exec Gncg.Equilibrium.NE host profile with
    | Ok () -> print_endline "Nash equilibrium  true"
    | Error grievances ->
      print_endline "Nash equilibrium  false";
      List.iter
        (fun g -> Format.printf "  %a@." Gncg.Equilibrium.pp_grievance g)
        grievances
  end
  else print_endline "Nash equilibrium  (skipped: host too large for the exact check)"

let host_path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"HOST" ~doc:"host file")

let profile_path_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"PROFILE" ~doc:"profile file")

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"check equilibrium properties of a saved instance")
    Term.(const check_files $ host_path_arg $ profile_path_arg $ Common.term)

(* --- cycles ------------------------------------------------------------ *)

(* The cycle certificates are tiny fixed instances: no flag does
   anything here, so none are accepted (previously --domains was
   silently swallowed). *)
let cycles common =
  let (_ : Gncg_util.Exec.t) = Common.setup ~verb:"cycles" ~accepts:[] common in
  let show name (host, cycle) =
    Printf.printf "%s: %d improving moves, certificate valid: %b\n" name
      (List.length cycle - 1)
      (Gncg_constructions.Brcycle.verify_cycle host cycle);
    List.iteri (fun i p -> Format.printf "  state %d: %a@." i Gncg.Strategy.pp p) cycle
  in
  show "Fig 5-style tree-metric cycle (Thm 14)"
    (Gncg_constructions.Brcycle.fig5_like_instance ());
  show "Fig 8 l1 cycle (Thm 17)" (Gncg_constructions.Brcycle.fig8_cycle ())

let cycles_cmd =
  Cmd.v
    (Cmd.info "cycles" ~doc:"print the stored improving-move cycles")
    Term.(const cycles $ Common.term)

(* --- br ----------------------------------------------------------------- *)

(* br is a sequential per-agent comparison: tracing/profiling make
   sense, --domains does not. *)
let br model n alpha seed common =
  let (_ : Gncg_util.Exec.t) =
    Common.setup ~verb:"br" ~accepts:[ Common.Trace; Common.Profile ] common
  in
  let rng = Gncg_util.Prng.create seed in
  let host = Gncg_workload.Instances.random_host rng model ~n ~alpha in
  let s = Gncg_workload.Instances.random_profile rng host in
  Printf.printf "agent  current      exact BR     local (3-approx)\n";
  for u = 0 to n - 1 do
    let current = Gncg.Cost.agent_cost host s u in
    let (_, exact), (_, local) = Gncg.Best_response.exact_and_local host s u in
    Printf.printf "%5d  %-11.4f  %-11.4f  %-11.4f\n" u current exact local
  done

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"instance seed")

let br_cmd =
  Cmd.v
    (Cmd.info "br" ~doc:"compare best-response engines on one random instance")
    Term.(const br $ model_arg $ n_arg $ alpha_arg $ seed_arg $ Common.term)

(* --- stats --------------------------------------------------------------- *)

let stats model n alpha seed common =
  let (_ : Gncg_util.Exec.t) = Common.setup ~verb:"stats" ~accepts:Common.all common in
  let rng = Gncg_util.Prng.create seed in
  let host = Gncg_workload.Instances.random_host rng model ~n ~alpha in
  let module T = Gncg_util.Tablefmt in
  let rows = ref [] in
  let add name st = rows := (name :: Gncg.Net_stats.row st) :: !rows in
  let opt_g, _ = Gncg.Social_optimum.best_known host in
  add "optimum" (Gncg.Net_stats.of_network host opt_g);
  let mst =
    Gncg_graph.Wgraph.of_edges n
      (Gncg_graph.Mst.prim_complete n (fun u v -> Gncg.Host.weight host u v))
  in
  add "mst" (Gncg.Net_stats.of_network host mst);
  (match
     Gncg.Dynamics.run
       (Gncg.Dynamics.Config.make ~max_steps:6000 Gncg.Dynamics.Greedy_response
          Gncg.Dynamics.Round_robin)
       host
       (Gncg_workload.Instances.random_profile rng host)
   with
  | Gncg.Dynamics.Converged { profile; _ } ->
    add "equilibrium" (Gncg.Net_stats.of_profile host profile)
  | _ -> ());
  T.print ~align:[ T.Left ] ~header:("design" :: Gncg.Net_stats.header) (List.rev !rows)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"network statistics of optimum / MST / equilibrium designs")
    Term.(const stats $ model_arg $ n_arg $ alpha_arg $ seed_arg $ Common.term)

(* --- serve / client ----------------------------------------------------- *)

(* The daemon and its CLI client (lib/serve): a long-lived experiment
   service over a Unix-domain socket speaking the versioned
   line-delimited JSON protocol of docs/SERVE.md. *)

module SP = Gncg_serve.Protocol

let socket_arg =
  Arg.(value
       & opt string "gncg.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let state_dir_arg =
  Arg.(value
       & opt string "gncg-serve-state"
       & info [ "state-dir" ] ~docv:"DIR"
           ~doc:
             "directory for the daemon's sweep journals; restarting on the same \
              directory resumes interrupted sweeps instead of recomputing them")

let serve socket state_dir stdio trace_stream budget retries workers common =
  let exec = Common.setup ~verb:"serve" ~accepts:Common.all common in
  let domains = Gncg_util.Exec.domain_count exec in
  (* Workers are this very binary re-executed as [gncg worker], so a
     deployed daemon and its fleet can never skew versions; they run
     under the daemon's drift-sentinel cadence. *)
  let pool =
    if workers <= 0 then None
    else
      let selfcheck =
        match common.Common.selfcheck with
        | Some k -> [ "--selfcheck"; string_of_int k ]
        | None -> []
      in
      Some
        ( { Gncg_serve.Pool.default_config with workers },
          Gncg_serve.Pool.spawn_exec
            (Array.of_list (Sys.executable_name :: "worker" :: selfcheck)) )
  in
  let session =
    Gncg_serve.Session.create ~state_dir ~domains ?budget ~retries ~trace_stream ?pool ()
  in
  if stdio then Gncg_serve.Server.serve_stdio session stdin stdout
  else begin
    Printf.eprintf "gncg serve: listening on %s (state dir %s, %d domains, %d workers)\n%!"
      socket state_dir domains workers;
    Gncg_serve.Server.serve_unix session ~path:socket;
    Printf.eprintf "gncg serve: drained, bye\n%!"
  end

let stdio_flag =
  Arg.(value
       & flag
       & info [ "stdio" ]
           ~doc:"speak the protocol on stdin/stdout instead of a socket (for tests)")

let trace_stream_flag =
  Arg.(value
       & flag
       & info [ "trace-stream" ]
           ~doc:
             "relay engine observability events onto each running job's event \
              stream, for clients watching with --trace (mutually exclusive with \
              --trace FILE: the stream sink replaces the file sink)")

let workers_arg =
  Arg.(value
       & opt int 0
       & info [ "workers" ] ~docv:"N"
           ~doc:
             "dispatch jobs to $(docv) supervised worker processes instead of \
              executing in the daemon: crash isolation (a kill -9'd worker costs a \
              requeue, not the daemon), per-job wall-clock enforcement by SIGKILL, \
              and query parallelism across processes; 0 (the default) keeps the \
              single in-process executor")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the experiment daemon: submit/watch/cancel jobs over a Unix-domain \
          socket; sweeps are journaled under --state-dir and survive kill-and-restart")
    Term.(const serve $ socket_arg $ state_dir_arg $ stdio_flag $ trace_stream_flag
          $ budget_arg $ retries_arg $ workers_arg $ Common.term)

(* The worker side of `gncg serve --workers N`: one supervised executor
   speaking the worker sub-protocol on stdin/stdout.  Never started by
   hand — documented for completeness and debuggability.  It accepts
   the daemon's --selfcheck, which the daemon passes on.  The
   --chaos-* flags inject deterministic process faults (self-SIGKILL,
   stall, protocol garbage) so the supervisor's detection paths can be
   exercised from outside the process: OCaml 5 forbids [Unix.fork] once
   domains are running, so chaos tests spawn this executable instead of
   forking a closure. *)
let chaos_arg name docv doc = Arg.(value & opt float 0.0 & info [ name ] ~docv ~doc)

let worker_cmd =
  let run kill_p hang_p hang_s garbage_p fault_attempts seed common =
    let (_ : Gncg_util.Exec.t) =
      Common.setup ~verb:"worker" ~accepts:[ Common.Selfcheck ] common
    in
    let chaos =
      if kill_p > 0.0 || hang_p > 0.0 || garbage_p > 0.0 then
        Some
          (Gncg_runs.Chaos.process_plan ~kill_p ~hang_p ~hang_s ~garbage_p
             ~fault_attempts ~seed ())
      else None
    in
    Gncg_serve.Worker.main ?chaos stdin stdout
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "run one pool worker over stdin/stdout (spawned by gncg serve --workers; \
          not meant to be started by hand)")
    Term.(const run
          $ chaos_arg "chaos-kill-p" "P"
              "probability the worker SIGKILLs itself instead of running a job \
               (deterministic per job key and attempt; fault injection for tests)"
          $ chaos_arg "chaos-hang-p" "P"
              "probability the worker stalls before running a job"
          $ Arg.(value & opt float 5.0
                 & info [ "chaos-hang-s" ] ~docv:"S" ~doc:"stall duration in seconds")
          $ chaos_arg "chaos-garbage-p" "P"
              "probability the worker writes one line of protocol garbage before a \
               result"
          $ Arg.(value & opt int 1
                 & info [ "chaos-fault-attempts" ] ~docv:"N"
                     ~doc:
                       "attempts eligible for faults: attempts above $(docv) never \
                        fault, so requeued jobs can be scripted to succeed")
          $ Arg.(value & opt int 0
                 & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"fault oracle seed")
          $ Common.term)

(* Client verbs.  Diagnostics and progress go to stderr; stdout carries
   only the payload (CSV, JSON) so pipes compose. *)

let die_error e =
  Printf.eprintf "%s\n" (Gncg_util.Gncg_error.to_string e);
  exit 1

let with_client socket f =
  match Gncg_serve.Client.connect_unix ~path:socket with
  | Error e -> die_error e
  | Ok c ->
    let result = f c in
    Gncg_serve.Client.close c;
    (match result with Ok () -> () | Error e -> die_error e)

let ( let* ) = Result.bind

let jint key j =
  match Result.bind (Gncg_runs.Json.member key j) Gncg_runs.Json.get_int with
  | Ok i -> i
  | Error _ -> 0

let client_setup verb common =
  let (_ : Gncg_util.Exec.t) =
    Common.setup ~verb:("client " ^ verb) ~accepts:[] common
  in
  ()

let client_ping socket common =
  client_setup "ping" common;
  with_client socket (fun c ->
      let* uptime = Gncg_serve.Client.ping c in
      Printf.printf "pong (daemon up %.1fs)\n" uptime;
      Ok ())

let client_sweep socket model ns alphas seeds rule max_steps budget retries common =
  client_setup "sweep" common;
  with_client socket (fun c ->
      let config =
        Gncg_runs.Job.grid ~rule ~max_steps model ~ns ~alphas
          ~seeds:(List.init seeds (fun s -> s + 1))
      in
      let job = SP.Sweep { config; budget; retries = Some retries } in
      let* id, attached = Gncg_serve.Client.submit c job in
      Printf.eprintf "job %s%s\n%!" id (if attached then " (attached)" else "");
      let summary = ref None in
      let* _done_data =
        Gncg_serve.Client.watch c
          ~on_event:(fun e ->
            match e.SP.name with "summary" -> summary := Some e.SP.data | _ -> ())
          id
      in
      (match !summary with
      | Some s ->
        (* "re-executed" is the resume contract: after a kill-and-restart
           it counts exactly the jobs the journal was missing. *)
        Printf.eprintf
          "sweep %s: total %d, re-executed %d, skipped %d, completed %d, diverged \
           %d, timeout %d, crashed %d, retries %d\n%!"
          id (jint "total" s) (jint "executed" s) (jint "skipped" s)
          (jint "completed" s) (jint "diverged" s) (jint "timeout" s)
          (jint "crashed" s) (jint "retries" s)
      | None -> Printf.eprintf "sweep %s: no summary event (job failed?)\n%!" id);
      let* csv = Gncg_serve.Client.fetch_csv c id in
      print_string csv;
      Ok ())

let check_kind_conv =
  let parse s = Result.map_error (fun e -> `Msg (Gncg_util.Gncg_error.to_string e))
      (SP.check_of_string s)
  in
  Arg.conv ~docv:"CHECK" (parse, fun fmt k -> Format.pp_print_string fmt (SP.check_to_string k))

let check_kind_arg =
  Arg.(value & opt check_kind_conv Gncg.Equilibrium.GE & info [ "check" ] ~doc:"ne | ge | ae")

let stabilize_flag =
  Arg.(value
       & flag
       & info [ "stabilize" ]
           ~doc:"run greedy dynamics to a stable state first and check that")

let watch_to_done c id ~pick =
  let found = ref None in
  let* _done_data =
    Gncg_serve.Client.watch c
      ~on_event:(fun e -> match pick e with Some v -> found := Some v | None -> ())
      id
  in
  match !found with
  | Some v -> Ok v
  | None ->
    Gncg_util.Gncg_error.fail ~context:"gncg client" Internal
      "job finished without its result event (see gncg client status)"

let client_check socket model n alpha seed check stabilize common =
  client_setup "check" common;
  with_client socket (fun c ->
      let* id, _ =
        Gncg_serve.Client.submit c
          (SP.Eq_check { model; n; alpha; seed; check; stabilize })
      in
      let* data =
        watch_to_done c id ~pick:(fun e ->
            if e.SP.name = "verdict" then Some e.SP.data else None)
      in
      print_endline (Gncg_runs.Json.to_string data);
      Ok ())

let agent_arg =
  Arg.(value & opt int 0 & info [ "agent" ] ~doc:"agent index for the best-response probe")

let client_br socket model n alpha seed agent common =
  client_setup "br" common;
  with_client socket (fun c ->
      let* id, _ =
        Gncg_serve.Client.submit c (SP.Best_response { model; n; alpha; seed; agent })
      in
      let* data =
        watch_to_done c id ~pick:(fun e ->
            if e.SP.name = "best-response" then Some e.SP.data else None)
      in
      print_endline (Gncg_runs.Json.to_string data);
      Ok ())

let job_id_opt_arg =
  Arg.(value & opt (some string) None & info [ "job" ] ~docv:"ID" ~doc:"job id")

let require_job = function
  | Some id -> id
  | None ->
    prerr_endline "a --job id is required for this subcommand";
    exit 1

let client_status socket job common =
  client_setup "status" common;
  with_client socket (fun c ->
      let* data = Gncg_serve.Client.status c ?job () in
      print_endline (Gncg_runs.Json.to_string data);
      Ok ())

let since_arg =
  Arg.(value & opt int 0 & info [ "since" ] ~doc:"replay only events with seq > N")

let trace_flag =
  Arg.(value
       & flag
       & info [ "trace" ]
           ~doc:"include the obs events the daemon relays when run with --trace-stream")

let client_watch socket job since trace common =
  client_setup "watch" common;
  let id = require_job job in
  with_client socket (fun c ->
      let* _done_data =
        Gncg_serve.Client.watch c ~since ~trace
          ~on_event:(fun e ->
            print_endline
              (Gncg_runs.Json.to_string
                 (Gncg_runs.Json.Obj
                    [
                      ("seq", Gncg_runs.Json.num_int e.SP.seq);
                      ("event", Gncg_runs.Json.Str e.SP.name);
                      ("data", e.SP.data);
                    ])))
          id
      in
      Ok ())

let client_cancel socket job common =
  client_setup "cancel" common;
  let id = require_job job in
  with_client socket (fun c ->
      let* cancelled = Gncg_serve.Client.cancel c id in
      Printf.printf "%s\n" (if cancelled then "cancelled" else "not cancellable");
      Ok ())

let client_fetch socket job common =
  client_setup "fetch" common;
  let id = require_job job in
  with_client socket (fun c ->
      let* csv = Gncg_serve.Client.fetch_csv c id in
      print_string csv;
      Ok ())

let client_shutdown socket common =
  client_setup "shutdown" common;
  with_client socket (fun c ->
      let* () = Gncg_serve.Client.shutdown c in
      Printf.eprintf "daemon drained and stopping\n%!";
      Ok ())

let client_cmd =
  let sub name doc term = Cmd.v (Cmd.info name ~doc) term in
  Cmd.group
    (Cmd.info "client" ~doc:"talk to a running gncg serve daemon")
    [
      sub "ping" "round-trip the daemon"
        Term.(const client_ping $ socket_arg $ Common.term);
      sub "sweep"
        "submit a journaled sweep, stream it to completion, print the CSV \
         (byte-identical to gncg sweep run --format csv)"
        Term.(const client_sweep $ socket_arg $ model_arg $ ns_arg $ alphas_arg
              $ seeds_arg $ rule_arg $ max_steps_arg $ budget_arg
              $ retries_arg $ Common.term);
      sub "check" "equilibrium check on a seeded random instance"
        Term.(const client_check $ socket_arg $ model_arg $ n_arg $ alpha_arg
              $ seed_arg $ check_kind_arg $ stabilize_flag $ Common.term);
      sub "br" "best-response probe for one agent on a seeded random instance"
        Term.(const client_br $ socket_arg $ model_arg $ n_arg $ alpha_arg $ seed_arg
              $ agent_arg $ Common.term);
      sub "status" "job table and daemon gauges (or one job with --job)"
        Term.(const client_status $ socket_arg $ job_id_opt_arg $ Common.term);
      sub "watch" "replay and follow a job's event stream as JSON lines"
        Term.(const client_watch $ socket_arg $ job_id_opt_arg $ since_arg
              $ trace_flag $ Common.term);
      sub "cancel" "cancel a queued job"
        Term.(const client_cancel $ socket_arg $ job_id_opt_arg $ Common.term);
      sub "fetch" "print a completed sweep's CSV"
        Term.(const client_fetch $ socket_arg $ job_id_opt_arg $ Common.term);
      sub "shutdown" "gracefully drain and stop the daemon"
        Term.(const client_shutdown $ socket_arg $ Common.term);
    ]

let () =
  let doc = "Geometric Network Creation Games engine" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "gncg" ~doc)
          [
            sweep_cmd; construct_cmd; cycles_cmd; br_cmd; stats_cmd; check_cmd;
            serve_cmd; worker_cmd; client_cmd;
          ]))
