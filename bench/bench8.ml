(* BENCH_8.json: the O(n²) distance wall, measured.

   Every distance backend behind the DISTANCES seam is benched at
   n ∈ {10³, 10⁴, 10⁵} on the same implicit hosts (a random recursive
   tree; a uniform R² point box):

     build        construct the backend from the host description
     query        random-pair distance gets
     rowsum       dist_sum (Σ_x d(u,x) — the cost-function kernel)
     add-kernel   dist_sum_with_edge (the what-if addition kernel)
     nearest-eval k-d nearest neighbour + one exact add kernel (rd only)

   Dense must tabulate all 8n² bytes, so it is gated by a
   memory ceiling (--mem-limit, default 2 GB — the CI `ulimit -v`):
   above it the row moves to "skipped" with the estimate as the reason;
   an actual allocation failure is caught and recorded as out-of-memory.
   The tree and R^d oracles carry O(n log n) / O(n·d) state and complete
   every n — that asymmetry is the point of the artifact.

   Two macro rows anchor against history: dynamics-converge at n=100 on
   the default dense backend replays the exact BENCH_4 instance (the
   committed ratio must stay within 1.1x), and dynamics-converge at
   n=1000 (full mode) runs greedy response on a tree-metric host, where
   the mutating engine deliberately falls back from the read-only tree
   oracle to dense.

   Schema (validated by bench/smoke.exe --validate-json):
     { "schema": "gncg-bench-8",
       "full": <bool>, "mem_ceiling_bytes": <int>,
       "baseline": { "op", "n", "ns_per_op", "source" },
       "dense_dynamics_n100_vs_bench4": <float>,
       "results": [ { "op", "backend", "n", "ns_per_op", "ops_per_s",
                      "mem_bytes" }, ... ],
       "skipped": [ { "op", "backend", "n", "reason" }, ... ],
       "counters": { "<metric>": <int>, ... } }

   Usage:
     dune exec bench/bench8.exe -- --out BENCH_8.json        # full artifact
     dune exec bench/bench8.exe -- --quick --out /tmp/b.json # CI (n=1k+100k)
     dune exec bench/bench8.exe -- --ns 1000,10000 --mem-limit 4000000000 *)

module D = Gncg_graph.Distances
module Geometry = Gncg_metric.Geometry
module Random_host = Gncg_metric.Random_host
module Json = Gncg_runs.Json

let schema_name = "gncg-bench-8"

(* The dynamics-converge n=100 results row of the committed BENCH_4.json:
   the dense path through the new seam must stay within 1.1x of it. *)
let bench4_dynamics_ns = 606659173.9654541

type cfg = {
  out : string option;
  ns : int list;
  mem_limit : int;
  full : bool; (* full = includes the n=1000 dynamics macro *)
}

let default_cfg =
  { out = None; ns = [ 1_000; 10_000; 100_000 ]; mem_limit = 2_000_000_000; full = true }

let usage () =
  prerr_endline
    "usage: bench8 [--out PATH] [--ns N1,N2,..] [--mem-limit BYTES] [--quick]";
  exit 2

let parse_cfg () =
  let rec go cfg = function
    | [] -> cfg
    | "--out" :: path :: rest -> go { cfg with out = Some path } rest
    | "--ns" :: spec :: rest ->
      let ns =
        String.split_on_char ',' spec
        |> List.map (fun s ->
               match int_of_string_opt (String.trim s) with
               | Some k when k >= 2 -> k
               | _ ->
                 prerr_endline ("bench8: bad --ns element " ^ s);
                 exit 2)
      in
      go { cfg with ns } rest
    | "--mem-limit" :: v :: rest ->
      (match int_of_string_opt v with
      | Some b when b > 0 -> go { cfg with mem_limit = b } rest
      | _ ->
        prerr_endline ("bench8: --mem-limit expects positive bytes, got " ^ v);
        exit 2)
    | "--quick" :: rest -> go { cfg with ns = [ 1_000; 100_000 ]; full = false } rest
    | a :: _ ->
      prerr_endline ("bench8: unknown argument " ^ a);
      usage ()
  in
  go default_cfg (List.tl (Array.to_list Sys.argv))

(* ---------------------------------------------------------------- timing *)

let now = Unix.gettimeofday

let time_once f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Calibrated throughput: pick an iteration count that keeps the timed
   region ~80ms so O(1) tree kernels and O(n) dense kernels are measured
   with comparable clock resolution. *)
let ns_per_op f =
  ignore (Sys.opaque_identity (f ()));
  let _, t1 = time_once f in
  let k = if t1 > 0.08 then 1 else int_of_float (0.08 /. Float.max t1 2e-8) in
  let k = max 1 (min k 5_000_000) in
  let t0 = now () in
  for _ = 1 to k do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int k *. 1e9

(* ------------------------------------------------------------------ rows *)

let results : Json.t list ref = ref []
let skipped : Json.t list ref = ref []

let record ~op ~backend ~n ~ns ~mem =
  Printf.printf "bench8: %-12s %-5s n=%-6d  %12.1f ns/op\n%!" op backend n ns;
  results :=
    Json.Obj
      [
        ("op", Json.Str op);
        ("backend", Json.Str backend);
        ("n", Json.num_int n);
        ("ns_per_op", Json.Num ns);
        ("ops_per_s", Json.Num (if ns > 0.0 then 1e9 /. ns else 0.0));
        ("mem_bytes", Json.num_int mem);
      ]
      :: !results

let skip ~op ~backend ~n ~reason =
  Printf.printf "bench8: %-12s %-5s n=%-6d  skipped (%s)\n%!" op backend n reason;
  skipped :=
    Json.Obj
      [
        ("op", Json.Str op);
        ("backend", Json.Str backend);
        ("n", Json.num_int n);
        ("reason", Json.Str reason);
      ]
      :: !skipped

(* ---------------------------------------------------------- the backends *)

(* All backends at size n answer distances of the same tree host, except
   rd which answers its own point-box host — throughput is comparable,
   values are checked elsewhere (test_distances). *)
let backend_builders cfg ~n =
  let rng = Gncg_util.Prng.create 8 in
  let tree_geo = Random_host.tree_geometry rng ~n ~wmin:1.0 ~wmax:10.0 in
  let tree_graph =
    match tree_geo with
    | Geometry.Tree tr -> Gncg_metric.Tree_metric.graph tr
    | Geometry.Points _ -> assert false
  in
  let rd_geo = Random_host.euclidean_geometry rng ~n ~d:2 ~lo:0.0 ~hi:100.0 in
  let dense_bytes = 8 * n * n in
  let dense =
    if dense_bytes > cfg.mem_limit then
      Error (Printf.sprintf "estimated 8n^2 = %d bytes exceeds mem ceiling" dense_bytes)
    else Ok (fun () -> D.dense tree_graph)
  in
  [
    ("tree", Ok (fun () -> Geometry.to_distances tree_geo));
    ("rd", Ok (fun () -> Geometry.to_distances rd_geo));
    ("dense", dense);
  ]

let all_ops = [ "build"; "query"; "rowsum"; "add-kernel"; "nearest-eval" ]

let bench_backend ~n name d ~build_ns =
  let mem = D.memory_bytes d in
  record ~op:"build" ~backend:name ~n ~ns:build_ns ~mem;
  let rng = Gncg_util.Prng.create 77 in
  let pairs = 4096 in
  let us = Array.init pairs (fun _ -> Gncg_util.Prng.int rng n) in
  let vs =
    Array.init pairs (fun i ->
        let v = Gncg_util.Prng.int rng (n - 1) in
        if v >= us.(i) then v + 1 else v)
  in
  let cursor = ref 0 in
  let next () =
    let i = !cursor in
    cursor := (i + 1) land (pairs - 1);
    i
  in
  record ~op:"query" ~backend:name ~n ~mem
    ~ns:
      (ns_per_op (fun () ->
           let i = next () in
           D.distance d us.(i) vs.(i)));
  record ~op:"rowsum" ~backend:name ~n ~mem
    ~ns:(ns_per_op (fun () -> D.dist_sum d us.(next ())));
  record ~op:"add-kernel" ~backend:name ~n ~mem
    ~ns:
      (ns_per_op (fun () ->
           let i = next () in
           D.dist_sum_with_edge d us.(i) vs.(i) 1.5));
  if name = "rd" then
    record ~op:"nearest-eval" ~backend:name ~n ~mem
      ~ns:
        (ns_per_op (fun () ->
             let u = us.(next ()) in
             match D.nearest d u with
             | Some (v, w) -> D.dist_sum_with_edge d u v w
             | None -> 0.0))

let run_scaling cfg =
  List.iter
    (fun n ->
      List.iter
        (fun (name, builder) ->
          match builder with
          | Error reason ->
            List.iter
              (fun op ->
                if op <> "nearest-eval" then skip ~op ~backend:name ~n ~reason)
              all_ops
          | Ok build -> (
            match time_once build with
            | d, build_s -> bench_backend ~n name d ~build_ns:(build_s *. 1e9)
            | exception Out_of_memory ->
              List.iter
                (fun op ->
                  if op <> "nearest-eval" then
                    skip ~op ~backend:name ~n ~reason:"out-of-memory")
                all_ops))
        (backend_builders cfg ~n))
    cfg.ns

(* ------------------------------------------------------------- dynamics *)

let converge host start =
  match
    Gncg.Dynamics.run
      (Gncg.Dynamics.Config.make ~max_steps:500_000 ~evaluator:`Incremental
         Gncg.Dynamics.Greedy_response Gncg.Dynamics.Round_robin)
      host start
  with
  | Gncg.Dynamics.Converged { profile; _ } -> profile
  | _ ->
    prerr_endline "bench8: macro dynamics did not converge";
    exit 1

(* The exact BENCH_4 macro instance, replayed through the seam. *)
let dynamics_n100 () =
  let rng = Gncg_util.Prng.create 1 in
  let host =
    Gncg.Host.make ~alpha:2.0
      (Random_host.uniform_metric rng ~n:100 ~lo:1.0 ~hi:6.0)
  in
  let start = Gncg_workload.Instances.random_profile rng host in
  Printf.printf "bench8: dynamics-converge n=100 dense (5 runs)...\n%!";
  let samples =
    List.init 5 (fun _ -> snd (time_once (fun () -> converge host start)))
  in
  let median = List.nth (List.sort Float.compare samples) 2 *. 1e9 in
  record ~op:"dynamics-converge" ~backend:"dense" ~n:100 ~ns:median
    ~mem:(8 * 100 * 100);
  median

(* Greedy response at n=1000 on a tree-metric host: the geometry is
   attached, but the mutating engine requires a writable backend, so
   Net_state falls back from the tree oracle to dense — the fallback
   counter in the snapshot below is the evidence. *)
let dynamics_n1000 () =
  let n = 1_000 in
  let rng = Gncg_util.Prng.create 2 in
  let metric, geometry = Random_host.tree_metric rng ~n ~wmin:1.0 ~wmax:10.0 in
  let host = Gncg.Host.make ~geometry ~alpha:2.0 metric in
  let start = Gncg_workload.Instances.random_profile rng host in
  Printf.printf "bench8: dynamics-converge n=1000 (1 run)...\n%!";
  let _, s = time_once (fun () -> converge host start) in
  record ~op:"dynamics-converge" ~backend:"dense" ~n ~ns:(s *. 1e9) ~mem:(8 * n * n)

(* ------------------------------------------------- instrumented snapshot *)

(* Outside every timed section: profiling on, touch each backend once, and
   embed the counter snapshot as evidence the seam's probes fire. *)
let counter_snapshot () =
  let was = Gncg_obs.Obs.profiling () in
  Gncg_obs.Obs.set_profiling true;
  Gncg_obs.Obs.reset ();
  let n = 64 in
  let rng = Gncg_util.Prng.create 9 in
  let tree_geo = Random_host.tree_geometry rng ~n ~wmin:1.0 ~wmax:4.0 in
  let rd_geo = Random_host.euclidean_geometry rng ~n ~d:2 ~lo:0.0 ~hi:10.0 in
  let tg =
    match tree_geo with
    | Geometry.Tree tr -> Gncg_metric.Tree_metric.graph tr
    | Geometry.Points _ -> assert false
  in
  List.iter
    (fun d ->
      ignore (D.distance d 0 (n - 1));
      ignore (D.dist_sum d 0);
      ignore (D.dist_sum_with_edge d 0 1 1.5);
      ignore (D.nearest d 0);
      ignore (D.selfcheck_now d))
    [ Geometry.to_distances tree_geo; Geometry.to_distances rd_geo; D.dense tg ];
  (let dd = D.dense tg in
   let v =
     let rec find v =
       if v > 0 && not (Gncg_graph.Wgraph.has_edge tg 0 v) then v else find (v - 1)
     in
     find (n - 1)
   in
   ignore (D.add_edge dd 0 v 1.0);
   ignore (D.remove_edge dd 0 v));
  (* One mutating dynamics state on a geometric host: exercises the
     require_mutable fallback counter. *)
  (let metric, geometry = Random_host.tree_metric rng ~n:16 ~wmin:1.0 ~wmax:4.0 in
   let host = Gncg.Host.make ~geometry ~alpha:2.0 metric in
   let start = Gncg_workload.Instances.random_profile rng host in
   ignore (converge host start));
  let snap = Gncg_obs.Obs.snapshot () in
  Gncg_obs.Obs.set_profiling was;
  List.map (fun (name, v) -> (name, Json.num_int v)) snap.Gncg_obs.Metric.counters

(* ------------------------------------------------------------------ main *)

let () =
  let cfg = parse_cfg () in
  (* The BENCH_4 anchor replay runs first, against a fresh heap: the
     scaling series grows the major heap by gigabytes (dense at
     n=10⁴), which taxes this allocation-heavy macro by ~30% if it runs
     after. *)
  let n100_ns = dynamics_n100 () in
  run_scaling cfg;
  if cfg.full then dynamics_n1000 ();
  let counters = counter_snapshot () in
  let ratio = n100_ns /. bench4_dynamics_ns in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str schema_name);
        ("generated_by", Json.Str "bench/bench8.exe");
        ("full", Json.Bool cfg.full);
        ("mem_ceiling_bytes", Json.num_int cfg.mem_limit);
        ( "baseline",
          Json.Obj
            [
              ("op", Json.Str "dynamics-converge");
              ("n", Json.num_int 100);
              ("ns_per_op", Json.Num bench4_dynamics_ns);
              ("source", Json.Str "BENCH_4.json");
            ] );
        ("dense_dynamics_n100_vs_bench4", Json.Num ratio);
        ("results", Json.List (List.rev !results));
        ("skipped", Json.List (List.rev !skipped));
        ("counters", Json.Obj counters);
      ]
  in
  (match cfg.out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "bench8: wrote %s\n%!" path
  | None -> print_endline (Json.to_string doc));
  Printf.printf "bench8: dense dynamics n=100 %.3f s (%.3fx of BENCH_4)\n%!"
    (n100_ns /. 1e9) ratio
