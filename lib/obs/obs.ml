let set_profiling = Metric.set_enabled

let reset = Metric.reset

let counters_event () =
  let s = Metric.snapshot () in
  let fields =
    List.map (fun (name, v) -> (name, Sink.Int v)) s.Metric.counters
    @ List.concat_map
        (fun (name, h) ->
          [
            (name ^ ".count", Sink.Int h.Metric.hcount);
            (name ^ ".sum", Sink.Float h.Metric.hsum);
          ])
        s.Metric.histograms
  in
  { Sink.kind = "counters"; name = "final"; t_ns = Clock.now_ns (); fields }

let trace_oc : out_channel option ref = ref None

let close_trace () =
  match !trace_oc with
  | None -> ()
  | Some oc ->
    trace_oc := None;
    Sink.emit (counters_event ());
    Sink.flush ();
    Sink.install None;
    close_out_noerr oc

let at_exit_registered = ref false

let trace_to_file path =
  close_trace ();
  let oc = open_out path in
  trace_oc := Some oc;
  Sink.install (Some (Sink.jsonl oc));
  set_profiling true;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit close_trace
  end

let print_summary out =
  let s = Metric.snapshot () in
  let counters = List.filter (fun (_, v) -> v <> 0) s.Metric.counters in
  let hists = List.filter (fun (_, h) -> h.Metric.hcount > 0) s.Metric.histograms in
  if counters = [] && hists = [] then
    output_string out "profile: no metrics recorded\n"
  else begin
    let width =
      List.fold_left
        (fun w (name, _) -> max w (String.length name))
        (String.length "metric")
        (List.map (fun (n, _) -> (n, ())) counters
        @ List.map (fun (n, _) -> (n, ())) hists)
    in
    let line = String.make (width + 40) '-' in
    if counters <> [] then begin
      Printf.fprintf out "%-*s  %12s\n%s\n" width "counter" "value" line;
      List.iter (fun (name, v) -> Printf.fprintf out "%-*s  %12d\n" width name v) counters
    end;
    if hists <> [] then begin
      if counters <> [] then output_char out '\n';
      Printf.fprintf out "%-*s  %10s  %14s  %12s\n%s\n" width "histogram" "count" "total" "mean" line;
      List.iter
        (fun (name, h) ->
          Printf.fprintf out "%-*s  %10d  %14.4g  %12.4g\n" width name h.Metric.hcount
            h.Metric.hsum
            (h.Metric.hsum /. float_of_int h.Metric.hcount))
        hists
    end
  end
