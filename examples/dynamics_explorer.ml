(* Dynamics explorer: a small CLI over the response-dynamics engine.

   Examples:
     dune exec examples/dynamics_explorer.exe -- --model tree --n 8 --alpha 2 --seeds 10
     dune exec examples/dynamics_explorer.exe -- --model one-two --rule br --alpha 0.4
     dune exec examples/dynamics_explorer.exe -- --model general --rule greedy --hunt-cycles *)

open Cmdliner

let model_of_string s =
  match List.assoc_opt s Gncg_workload.Instances.named_models with
  | Some model -> Ok model
  | None -> Error (`Msg (Printf.sprintf "unknown model %S" s))

let rule_of_string = function
  | "br" -> Ok Gncg.Dynamics.Best_response
  | "greedy" -> Ok Gncg.Dynamics.Greedy_response
  | "add" -> Ok Gncg.Dynamics.Add_only
  | s -> Error (`Msg (Printf.sprintf "unknown rule %S" s))

let run model rule n alpha seeds max_steps hunt_cycles =
  if hunt_cycles then begin
    let rng = Gncg_util.Prng.create 4242 in
    ignore rule;
    (* Cycle hunting uses the full rule battery (greedy / random improving
       / best response): a single rule finds far fewer cycles. *)
    Printf.printf "Hunting improving-move cycles (%d hosts)...\n%!" seeds;
    match
      Gncg_constructions.Brcycle.search_generated ~tries:seeds ~max_steps
        ~host_gen:(fun r -> Gncg_workload.Instances.random_host r model ~n ~alpha)
        rng
    with
    | Some f ->
      Printf.printf "Cycle of %d states found; certificate valid: %b\n"
        (List.length f.cycle - 1)
        (Gncg_constructions.Brcycle.verify_cycle f.host f.cycle)
    | None -> print_endline "No cycle found within the budget."
  end
  else begin
    let runs =
      List.init seeds (fun seed ->
          Gncg_workload.Sweep.dynamics_run ~rule ~max_steps model ~n ~alpha ~seed)
    in
    Gncg_workload.Report.print_runs runs;
    Printf.printf "\nconverged: %.0f%%\n"
      (100.0 *. Gncg_workload.Sweep.converged_fraction runs)
  end

let model_arg =
  let mconv = Arg.conv ~docv:"MODEL" (model_of_string, fun fmt _ -> Format.fprintf fmt "<model>") in
  Arg.(value & opt mconv (Gncg_workload.Instances.Tree { wmin = 1.0; wmax = 10.0 })
       & info [ "model" ]
           ~doc:(String.concat " | " (List.map fst Gncg_workload.Instances.named_models)))

let rule_arg =
  let rconv = Arg.conv ~docv:"RULE" (rule_of_string, fun fmt _ -> Format.fprintf fmt "<rule>") in
  Arg.(value & opt rconv Gncg.Dynamics.Greedy_response
       & info [ "rule" ] ~doc:"br | greedy | add")

let n_arg = Arg.(value & opt int 8 & info [ "n" ] ~doc:"number of agents")

let alpha_arg = Arg.(value & opt float 2.0 & info [ "alpha" ] ~doc:"edge price factor")

let seeds_arg = Arg.(value & opt int 5 & info [ "seeds" ] ~doc:"number of seeded runs")

let steps_arg = Arg.(value & opt int 4000 & info [ "max-steps" ] ~doc:"activation budget")

let hunt_arg = Arg.(value & flag & info [ "hunt-cycles" ] ~doc:"search for improving-move cycles")

let cmd =
  let doc = "explore GNCG response dynamics" in
  Cmd.v
    (Cmd.info "dynamics_explorer" ~doc)
    Term.(const run $ model_arg $ rule_arg $ n_arg $ alpha_arg $ seeds_arg $ steps_arg $ hunt_arg)

let () = exit (Cmd.eval cmd)
