(* The n = 1000 dynamics anchor of the distance core (ROADMAP item 9).

   Greedy response, round robin, from a random profile on the tree metric
   of a random 1000-vertex tree with weights in [1, 10], at alpha = 2:
   every step runs the incremental distance store at a size where its
   insertion and deletion updates dominate.  Prints the wall time, the
   bytes allocated and the MD5 of the final profile's text form, which
   must stay 317e0e47ee0570c60f96d77e6628a86d: a change that moves any
   distance bit or any pick moves the digest, and the program then exits
   with status 1.

   Run:  dune exec examples/tree_anchor.exe
   (the dynamics take about 10 s on a 2-core x86-64 VM, building the
   host a few seconds more). *)

let n = 1000

let alpha = 2.0

let expected_md5 = "317e0e47ee0570c60f96d77e6628a86d"

let () =
  let rng = Gncg_util.Prng.create 2 in
  let metric, _ = Gncg_metric.Random_host.tree_metric rng ~n ~wmin:1.0 ~wmax:10.0 in
  let host = Gncg.Host.make ~alpha metric in
  let start = Gncg_workload.Instances.random_profile rng host in
  let m = { Gncg.Dynamics.evaluations = 0; moves = 0; skips = 0 } in
  let cfg =
    Gncg.Dynamics.Config.make ~max_steps:1_000_000 ~metrics:m Gncg.Dynamics.Greedy_response
      Gncg.Dynamics.Round_robin
  in
  let bytes0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let outcome = Gncg.Dynamics.run cfg host start in
  let wall = Unix.gettimeofday () -. t0 in
  let bytes = Gc.allocated_bytes () -. bytes0 in
  let kind, final =
    match outcome with
    | Gncg.Dynamics.Converged { profile; _ } -> ("converged", profile)
    | Gncg.Dynamics.Cycle { profiles; _ } -> ("cycle", List.hd profiles)
    | Gncg.Dynamics.Out_of_steps { profile; _ } -> ("out of steps", profile)
  in
  let md5 = Digest.to_hex (Digest.string (Gncg.Serialize.profile_to_string final)) in
  Printf.printf "tree anchor: n = %d, alpha = %g: %s after %d evaluations, %d moves, %d skips\n"
    n alpha kind m.evaluations m.moves m.skips;
  Printf.printf "wall %.2f s, allocated %.3f GB\n" wall (bytes /. 1e9);
  Printf.printf "final profile md5 %s (%s)\n" md5
    (if md5 = expected_md5 then "as expected" else "expected " ^ expected_md5);
  if md5 <> expected_md5 then exit 1
