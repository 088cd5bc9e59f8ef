(* Shared plumbing of the benchmark: the metric tables, the run
   configuration, clocks and order statistics, the in-memory span
   recorder of traced runs, process memory, the drift-calibration kernel
   and the result record every workload returns. *)

module Json = Gncg_runs.Json

(* ---------------------------------------------------------------- metrics *)

(* Every workload prints every metric of both tables, so the names are
   workload-neutral: an "operation" is one convergence, one
   certification or one closed-loop serve iteration.  The names and
   units must match BENCHMARK.json; [--quick] checks that they do. *)
let end_to_end = [ ("setup_s", "s"); ("op_ms", "ms"); ("p50_ms", "ms"); ("peak_rss_mb", "MB") ]

(* Layer times are shares of the traced wall time ([_frac]): a layer a
   workload never enters reads 0, and the shares plus [trace.other_frac]
   sum to 1.  Counts are per operation of the traced run. *)
let per_layer =
  [
    ("trace.wall_s", "s");
    ("trace.overhead_frac", "frac");
    ("trace.replica_match", "bool");
    ("trace.other_frac", "frac");
    ("calib.rowsum_ns", "ns");
    ("calib.drift", "x");
    ("run.tail_ms", "ms");
    ("run.alloc_mb_per_op", "MB");
    ("fast_response.eval_frac", "frac");
    ("fast_response.evals", "count");
    ("fast_response.eval_alloc_mb", "MB");
    ("fast_response.rowlocal_frac", "frac");
    ("net_state.apply_frac", "frac");
    ("net_state.apply_alloc_mb", "MB");
    ("net_state.moves", "count");
    ("net_state.cost_frac", "frac");
    ("net_state.drain_frac", "frac");
    ("incr_apsp.rows_relaxed", "count");
    ("incr_apsp.rows_changed", "count");
    ("incr_apsp.deletions", "count");
    ("incr_apsp.deletion_rows_recomputed", "count");
    ("incr_apsp.whatif_sssp", "count");
    ("dynamics.cycle_key_frac", "frac");
    ("dynamics.settle_frac", "frac");
    ("dynamics.skips", "count");
    ("dynamics.skip_frac", "frac");
    ("cost.agent_cost_frac", "frac");
    ("network.graph_build_frac", "frac");
    ("greedy.move_scan_frac", "frac");
    ("greedy.candidates", "count");
    ("exec.par2_speedup", "x");
    ("equilibrium.tracker_speedup", "x");
    ("serve.ping_frac", "frac");
    ("serve.eq_check_frac", "frac");
    ("serve.br_frac", "frac");
    ("serve.attach_frac", "frac");
    ("serve.eq_check_tail_ratio", "x");
    ("serve.attached_frac", "frac");
    ("serve.compute_frac", "frac");
    ("serve.pool_restarts", "count");
  ]

(* ------------------------------------------------------------ run config *)

type cfg = {
  seed : int;
  seconds : float;  (** the measured budget the workload sizes itself to *)
  traced : bool;
  quick : bool;  (** reduced sizes for the [@benchmark-quick] gate *)
  run_dir : string;  (** scratch files of this run (sockets, daemon logs) *)
}

(* Work sized to the measured budget: [per_10s] units fill a 10 s run on
   a 2-core x86 container.  The size depends on [--seconds] only, never
   on how fast this machine is, so two commits always do the same work. *)
let scaled cfg ~per_10s ~quick =
  if cfg.quick then quick
  else max 1 (int_of_float (Float.round (float_of_int per_10s *. cfg.seconds /. 10.0)))

(* The Prng seed of instance [i] of a run.  Instance 0 of seed s is
   built as a single-instance run of seed s would be; seed 1 on
   dyn-greedy-n100 gives the BENCH_4/8/9 anchor instance. *)
let instance_seed cfg i = cfg.seed + (7919 * i)

(* ------------------------------------------------------- time and order *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks — the inclusive method of
   Python's statistics.quantiles. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = truncate h in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let sum = List.fold_left ( +. ) 0.0

(* The highest of p99/p90/p75/p50 with at least ten samples beyond it. *)
let tail_q n =
  if n >= 1000 then 0.99 else if n >= 100 then 0.90 else if n >= 40 then 0.75 else 0.5

let tail_name n = Printf.sprintf "p%.0f" (100.0 *. tail_q n)

(* ------------------------------------------------------ drift calibration *)

(* The machine is shared.  Other tenants' memory traffic slows
   memory-bound code by up to 2x, in bursts of a second to minutes, while
   a register-only loop barely moves; no run length averages that out.
   So every timed operation is followed by a fixed reference kernel, and
   its time is scaled by [kernel_ref_s] over the kernel's time: the time
   the operation would take at the kernel's reference speed.  The kernel
   is this file's own code, short-lived allocation and a dense
   all-sources Dijkstra (the memory traffic the workloads make), so a
   change to the library cannot move it.  README.md gives the
   measurements. *)

(* About the kernel's time on a quiet 2-core x86 container. *)
let kernel_ref_s = 0.004

let kernel_weights =
  let x = ref 12345 in
  Array.init 100 (fun _ ->
      Array.init 100 (fun _ ->
          x := ((!x * 1103515245) + 12345) land 0x3fffffff;
          1.0 +. float_of_int (!x land 0xffff) /. 13107.0))

let kernel () =
  let t0 = now () in
  let live = ref 0 in
  for i = 1 to 10_000 do
    let l = List.init 20 (fun x -> (x, float_of_int (x + i))) in
    live := !live + List.length (List.filter (fun (x, _) -> x land 1 = 0) l)
  done;
  let n = Array.length kernel_weights in
  let far = ref 0.0 in
  for src = 0 to 39 do
    let d = Array.make n Float.infinity and settled = Array.make n false in
    d.(src) <- 0.0;
    for _ = 1 to n do
      let u = ref (-1) in
      for v = 0 to n - 1 do
        if (not settled.(v)) && (!u < 0 || d.(v) < d.(!u)) then u := v
      done;
      let u = !u in
      settled.(u) <- true;
      let row = kernel_weights.(u) in
      for v = 0 to n - 1 do
        let via = d.(u) +. row.(v) in
        if via < d.(v) then d.(v) <- via
      done
    done;
    far := !far +. d.(n - 1 - src)
  done;
  ignore (Sys.opaque_identity (!live, !far));
  now () -. t0

(* Every kernel time of the run over [kernel_ref_s]: how slow the machine
   was (the per-layer [calib.drift]). *)
let drifts = ref []

(* When the last kernel run ended, and its time. *)
let last_kernel = ref (Float.neg_infinity, kernel_ref_s)

let sample_kernel () =
  let k = kernel () in
  drifts := (k /. kernel_ref_s) :: !drifts;
  last_kernel := (now (), k);
  k

(* [f ()] and its calibrated time in seconds.  One kernel run is as
   noisy as a short operation, so the time is scaled by the mean of the
   runs right before and right after [f]; the one before is the previous
   operation's when that ended less than a second ago. *)
let calibrated f =
  let ended, k = !last_kernel in
  let before = if now () -. ended < 1.0 then k else sample_kernel () in
  let r, s = time f in
  let after = sample_kernel () in
  (r, s *. kernel_ref_s *. 2.0 /. (before +. after))

(* The timed work of a run is cut into this many consecutive slices, so
   that what calibration leaves of a burst slows a few slices and the
   median slice skips it. *)
let slice_count = 8

(* The metrics from one run's calibrated samples: [latencies] are the
   single-operation times in the order they ran (seconds).  op_ms is the
   median slice's time per operation, the inverse of throughput.  The
   tail is not bounded, so it is a per-layer metric: on the batch
   workloads it is the input's slowest instances, which differ from seed
   to seed by more than any bound. *)
let op_metrics ~setups ~latencies ~rss_mb =
  let n = List.length latencies in
  let k = min slice_count n in
  let slice_mean c =
    let part = List.filteri (fun i _ -> i * k / n = c) latencies in
    sum part /. float_of_int (List.length part)
  in
  [
    ("setup_s", median setups);
    ("op_ms", median (List.init k slice_mean) *. 1e3);
    ("p50_ms", median latencies *. 1e3);
    ("peak_rss_mb", rss_mb);
    ("run.tail_ms", quantile latencies (tail_q n) *. 1e3);
    ("calib.drift", median !drifts);
  ]

(* Words allocated by this domain so far, minor and direct-major. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* -------------------------------------------------------------- spans *)

(* Spans are recorded only at the benchmark's own call sites into the
   layer functions — engine-internal spans are not this file's to add.
   Each keeps its parent, so a layer's self time is its duration minus
   the part its child spans cover, and self times partition the roots. *)
module Spans = struct
  type t = { id : int; name : string; parent : int; t0 : float; t1 : float; words : float }

  let recorded : t list ref = ref []
  let next_id = ref 0
  let current = ref (-1)

  let reset () =
    recorded := [];
    next_id := 0;
    current := -1

  let span name f =
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = alloc_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let words = alloc_words () -. w0 in
      current := parent;
      recorded := { id; name; parent; t0; t1; words } :: !recorded
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e

  type layer = { self_s : float; self_words : float; calls : int }

  let unused = { self_s = 0.0; self_words = 0.0; calls = 0 }

  (* Per-name self time and allocation, plus the summed root durations
     (the traced wall time). *)
  let summary () =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then begin
          let d, w = Option.value (Hashtbl.find_opt child s.parent) ~default:(0.0, 0.0) in
          Hashtbl.replace child s.parent (d +. (s.t1 -. s.t0), w +. s.words)
        end)
      !recorded;
    let layers = Hashtbl.create 16 in
    let wall = ref 0.0 in
    List.iter
      (fun s ->
        let cd, cw = Option.value (Hashtbl.find_opt child s.id) ~default:(0.0, 0.0) in
        let l = Option.value (Hashtbl.find_opt layers s.name) ~default:unused in
        Hashtbl.replace layers s.name
          {
            self_s = l.self_s +. (s.t1 -. s.t0 -. cd);
            self_words = l.self_words +. (s.words -. cw);
            calls = l.calls + 1;
          };
        if s.parent < 0 then wall := !wall +. (s.t1 -. s.t0))
      !recorded;
    (layers, !wall)

  let write_jsonl path =
    let oc = open_out path in
    let origin = List.fold_left (fun acc s -> Float.min acc s.t0) Float.infinity !recorded in
    List.iter
      (fun s ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("id", Json.num_int s.id);
                  ("name", Json.Str s.name);
                  ("parent", if s.parent < 0 then Json.Null else Json.num_int s.parent);
                  ("start_ns", Json.Num ((s.t0 -. origin) *. 1e9));
                  ("end_ns", Json.Num ((s.t1 -. origin) *. 1e9));
                  ("alloc_words", Json.Num s.words);
                ]));
        output_char oc '\n')
      (List.rev !recorded);
    close_out oc
end

let span = Spans.span

(* Layer shares of a traced run: [fracs] maps metric names to span
   names; the roots' self time is [trace.other_frac]. *)
let layer_fracs ~root fracs =
  let layers, wall = Spans.summary () in
  let self name = Option.value (Hashtbl.find_opt layers name) ~default:Spans.unused in
  let shares = List.map (fun (metric, name) -> (metric, (self name).self_s /. wall)) fracs in
  (("trace.wall_s", wall) :: ("trace.other_frac", (self root).self_s /. wall) :: shares, self, wall)

(* Engine counters of the traced run, per operation. *)
let counter_per name ops =
  match Gncg_obs.Metric.find_counter name with
  | Some c -> float_of_int (Gncg_obs.Metric.Counter.value c) /. float_of_int ops
  | None -> 0.0

(* Profiling on around [f] with fresh counters and spans. *)
let traced f =
  Gncg_obs.Obs.set_profiling true;
  Gncg_obs.Obs.reset ();
  Spans.reset ();
  Fun.protect ~finally:(fun () -> Gncg_obs.Obs.set_profiling false) f

(* Wall time of [f] with profiling off, inside a traced section: the
   untraced twin of a replay, measured right next to it. *)
let untraced_time f =
  Gncg_obs.Obs.set_profiling false;
  let (_ : 'a), s = time f in
  Gncg_obs.Obs.set_profiling true;
  s

(* ------------------------------------------------------------- memory *)

(* Peak resident set (VmHWM) of a process, in MB; NaN when unreadable,
   which the finite-metric check then reports. *)
let vmhwm_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line -> (
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> Float.nan)
          | [] -> Float.nan)
        | _ -> scan ())
    in
    let r = scan () in
    close_in ic;
    r

(* -------------------------------------------------------- calibration *)

(* The BENCH_8 dense n = 1000 rowsum kernel (Prng 8 random recursive
   tree, one streamed distance-row sum per call), in ns per call.  It is
   recorded in every run so that a slow machine window is visible next
   to the numbers it slowed; nothing is normalized by it. *)
let calib_rowsum_ns () =
  let n = 1_000 in
  let rng = Gncg_util.Prng.create 8 in
  let graph =
    match Gncg_metric.Random_host.tree_geometry rng ~n ~wmin:1.0 ~wmax:10.0 with
    | Gncg_metric.Geometry.Tree tr -> Gncg_metric.Tree_metric.graph tr
    | Gncg_metric.Geometry.Points _ -> invalid_arg "calib_rowsum_ns: tree_geometry gave points"
  in
  let d = Gncg_graph.Distances.dense graph in
  let prng = Gncg_util.Prng.create 77 in
  let sources = Array.init 4096 (fun _ -> Gncg_util.Prng.int prng n) in
  let cursor = ref 0 in
  let call () =
    cursor := (!cursor + 1) land 4095;
    Gncg_graph.Distances.dist_sum d sources.(!cursor)
  in
  let calls = 20_000 in
  let block () =
    let (), s =
      time (fun () ->
          for _ = 1 to calls do
            ignore (Sys.opaque_identity (call ()))
          done)
    in
    s /. float_of_int calls *. 1e9
  in
  ignore (block ());
  median (List.init 5 (fun _ -> block ()))

(* ------------------------------------------------------------- result *)

type result = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named correctness checks, all must hold *)
  digest : string;  (** content hash of the outputs, compared with pins.json *)
  metrics : (string * float) list;  (** end-to-end and per-layer values by name *)
  notes : string list;  (** human-readable detail printed above the result *)
}

(* 64-bit FNV-1a, as hex: the content hash the serve protocol keys jobs by. *)
let digest = Gncg_serve.Protocol.content_hash
