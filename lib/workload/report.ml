module T = Gncg_util.Tablefmt

let print_runs runs =
  let rows =
    List.map
      (fun (r : Sweep.run) ->
        [
          r.model;
          string_of_int r.n;
          T.fl ~digits:3 r.alpha;
          string_of_int r.seed;
          (if r.converged then "yes" else "no");
          string_of_int r.steps;
          T.fl ~digits:2 r.stable_cost;
          T.fl ~digits:2 r.opt_cost;
          T.fl ~digits:4 r.ratio;
          T.fl ~digits:2 r.diameter;
          T.fl ~digits:3 r.stretch;
          (if r.is_tree then "tree" else "-");
        ])
      runs
  in
  T.print
    ~align:[ T.Left ]
    ~header:
      [
        "model"; "n"; "alpha"; "seed"; "conv"; "steps"; "stable"; "opt"; "ratio"; "diam";
        "stretch"; "shape";
      ]
    rows

let print_ratio_summary ~group_label groups =
  let rows =
    List.map
      (fun (label, runs) ->
        let rs = Sweep.ratios runs in
        let mean, worst =
          match rs with
          | [] -> (Float.nan, Float.nan)
          | _ -> (Gncg_util.Stats.mean rs, List.fold_left Float.max 0.0 rs)
        in
        [
          label;
          string_of_int (List.length runs);
          T.fl ~digits:2 (Sweep.converged_fraction runs);
          T.fl ~digits:4 mean;
          T.fl ~digits:4 worst;
        ])
      groups
  in
  T.print
    ~align:[ T.Left ]
    ~header:[ group_label; "runs"; "conv"; "mean ratio"; "worst ratio" ]
    rows

let csv_header =
  "model,n,alpha,seed,converged,steps,stable_cost,opt_cost,ratio,diameter,stretch,is_tree"

let runs_to_csv runs =
  let row (r : Sweep.run) =
    Printf.sprintf "%s,%d,%.6g,%d,%b,%d,%.6g,%.6g,%.6g,%.6g,%.6g,%b" r.model r.n r.alpha
      r.seed r.converged r.steps r.stable_cost r.opt_cost r.ratio r.diameter r.stretch
      r.is_tree
  in
  String.concat "\n" (csv_header :: List.map row runs) ^ "\n"

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let runs_to_json runs =
  let obj (r : Sweep.run) =
    Printf.sprintf
      "{\"model\":\"%s\",\"n\":%d,\"alpha\":%s,\"seed\":%d,\"converged\":%b,\"steps\":%d,\
       \"stable_cost\":%s,\"opt_cost\":%s,\"ratio\":%s,\"diameter\":%s,\"stretch\":%s,\
       \"is_tree\":%b}"
      r.model r.n (json_float r.alpha) r.seed r.converged r.steps
      (json_float r.stable_cost) (json_float r.opt_cost) (json_float r.ratio)
      (json_float r.diameter) (json_float r.stretch) r.is_tree
  in
  "[" ^ String.concat "," (List.map obj runs) ^ "]"
