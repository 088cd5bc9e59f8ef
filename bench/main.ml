(* Reproduction harness: regenerates every table/figure series of the paper
   (experiments E1-E23, see DESIGN.md and EXPERIMENTS.md).  Performance is
   measured by the calibrated harness under benchmark/, not here.

   Usage:
     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- E4 E8        # selected experiments
     dune exec bench/main.exe -- --domains 4  # worker domains for the Par paths
     dune exec bench/main.exe -- --trace FILE # JSONL observability trace
     dune exec bench/main.exe -- --profile    # counter summary on stderr at exit

   An unknown experiment id or flag is a usage error (exit 2). *)

let usage = "usage: main.exe [--domains N] [--trace FILE] [--profile] [E1 .. E23]"

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

let () =
  let rec parse selected = function
    | [] -> List.rev selected
    | "--domains" :: d :: rest ->
      (match int_of_string_opt d with
      | Some k when k >= 1 -> Gncg_util.Exec.set_default_domains (Some k)
      | _ -> usage_error "--domains expects a positive integer, got %s" d);
      parse selected rest
    | "--trace" :: path :: rest ->
      Gncg_obs.Obs.trace_to_file path;
      parse selected rest
    | "--profile" :: rest ->
      Gncg_obs.Obs.set_profiling true;
      at_exit (fun () -> Gncg_obs.Obs.print_summary stderr);
      parse selected rest
    | id :: rest when List.mem_assoc id Experiments.all -> parse (id :: selected) rest
    | arg :: _ when String.starts_with ~prefix:"-" arg -> usage_error "unknown flag %s" arg
    | arg :: _ -> usage_error "unknown experiment %s" arg
  in
  let selected = parse [] (List.tl (Array.to_list Sys.argv)) in
  let chosen =
    if selected = [] then Experiments.all
    else List.filter (fun (id, _) -> List.mem id selected) Experiments.all
  in
  print_endline "Geometric Network Creation Games — reproduction harness";
  print_endline "(paper: Bilo, Friedrich, Lenzner, Melnichenko, SPAA 2019)";
  List.iter (fun (_, f) -> f ()) chosen
