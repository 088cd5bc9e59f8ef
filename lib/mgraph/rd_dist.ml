(* Implicit distance oracle for R^d p-norm hosts: coordinates only.

   When the built network is the complete graph on the point set (the
   host metric itself — the regime of the paper's §5 results on R^d
   hosts), the shortest path between any pair is the direct edge, by the
   triangle inequality.  So distances are evaluated straight off an
   [n*d] flat coordinate array — O(d) per get, O(n·d) storage, no
   matrix — and a k-d tree over the same coordinates answers
   nearest-addable-target queries for the response engines.

   What-if edits stay exact without Dijkstra:
   - removing direct edge (a,b) only changes d(a,b), which becomes the
     best 2-hop detour min_z (|az| + |zb|) — any longer detour can be
     shortcut through its first stop's surviving direct edge;
   - adding edge (u,v,w) is the standard insertion relaxation, exact
     because a shortest path never crosses a fixed edge twice. *)

module Metric = Gncg_obs.Metric

let c_builds = Metric.Counter.make "rd_dist.builds"
let c_row_kernels = Metric.Counter.make "rd_dist.row_kernels"
let c_whatif_rows = Metric.Counter.make "rd_dist.whatif_rows"
let c_nearest = Metric.Counter.make "rd_dist.nearest"
let c_selfcheck_probes = Metric.Counter.make "rd_dist.selfcheck_probes"
let c_selfcheck_mismatches = Metric.Counter.make "rd_dist.selfcheck_mismatches"
let c_selfcheck_repairs = Metric.Counter.make "rd_dist.selfcheck_repairs"

type t = {
  norm : Pnorm.t;
  flat : float array;  (* n*d row-major coordinates (owned) *)
  d : int;
  n : int;
  kd : Kd_tree.t;      (* nearest-target index; holds its own coord copy *)
  mutable selfcheck_every : int;
  mutable selfcheck_cursor : int;
}

let make norm ~flat ~d =
  Metric.Counter.incr c_builds;
  Pnorm.validate norm;
  if d < 1 then invalid_arg "Rd_dist.make: dimension must be positive";
  if Array.length flat mod d <> 0 then invalid_arg "Rd_dist.make: ragged flat store";
  let flat = Array.copy flat in
  let n = Array.length flat / d in
  if n < 1 then invalid_arg "Rd_dist.make: no points";
  {
    norm;
    flat;
    d;
    n;
    kd = Kd_tree.build norm ~flat ~d;
    selfcheck_every = Incr_apsp.default_selfcheck_cadence ();
    selfcheck_cursor = 0;
  }

let of_points norm pts =
  let n = Array.length pts in
  if n < 1 then invalid_arg "Rd_dist.of_points: no points";
  let d = Array.length pts.(0) in
  let flat = Array.make (n * d) 0.0 in
  Array.iteri
    (fun i p ->
      if Array.length p <> d then invalid_arg "Rd_dist.of_points: ragged points";
      Array.blit p 0 flat (i * d) d)
    pts;
  make norm ~flat ~d

let n t = t.n

let dim t = t.d

let norm t = t.norm

let point t i =
  if i < 0 || i >= t.n then invalid_arg "Rd_dist.point: out of range";
  Array.sub t.flat (i * t.d) t.d

let check t u name =
  if u < 0 || u >= t.n then
    invalid_arg (Printf.sprintf "Rd_dist.%s: vertex %d out of range" name u)

let unsafe_distance t u v = if u = v then 0.0 else Pnorm.dist t.norm ~flat:t.flat ~d:t.d u v

let distance t u v =
  check t u "distance";
  check t v "distance";
  unsafe_distance t u v

let row_into t u dst =
  check t u "row_into";
  if Array.length dst < t.n then invalid_arg "Rd_dist.row_into: row too short";
  Metric.Counter.incr c_row_kernels;
  for x = 0 to t.n - 1 do
    Array.unsafe_set dst x (unsafe_distance t u x)
  done

let row t u =
  let dst = Array.make t.n 0.0 in
  row_into t u dst;
  dst

let dist_sum t u =
  check t u "dist_sum";
  Metric.Counter.incr c_row_kernels;
  let s = ref 0.0 and c = ref 0.0 in
  for x = 0 to t.n - 1 do
    let d = unsafe_distance t u x in
    let y = d -. !c in
    let tt = !s +. y in
    c := tt -. !s -. y;
    s := tt
  done;
  !s

(* Compare-select minimum for the distance kernels: the bits of
   [Float.min] on p-norm distances, which are never NaN and never -0
   (norms of differences, +0 on the diagonal), without its sign-bit C
   call.  Local, not shared: under the dev profile's -opaque a
   cross-module helper would box both floats. *)
let[@inline] fmin (a : float) b = if b < a then b else a

let dist_sum_with_edge t u v w =
  check t u "dist_sum_with_edge";
  check t v "dist_sum_with_edge";
  Metric.Counter.incr c_row_kernels;
  let s = ref 0.0 and c = ref 0.0 in
  for x = 0 to t.n - 1 do
    let m = fmin (unsafe_distance t u x) (w +. unsafe_distance t v x) in
    let y = m -. !c in
    let tt = !s +. y in
    c := tt -. !s -. y;
    s := tt
  done;
  !s

let min_sum_against t r v w =
  check t v "min_sum_against";
  if Array.length r < t.n then invalid_arg "Rd_dist.min_sum_against: row too short";
  Metric.Counter.incr c_row_kernels;
  let s = ref 0.0 and c = ref 0.0 in
  let any_inf = ref false in
  for x = 0 to t.n - 1 do
    let m = fmin (Array.unsafe_get r x) (w +. unsafe_distance t v x) in
    if m = Float.infinity then any_inf := true
    else begin
      let y = m -. !c in
      let tt = !s +. y in
      c := tt -. !s -. y;
      s := tt
    end
  done;
  if !any_inf then Float.infinity else !s

(* --- what-if evaluation (closed-form, no Dijkstra) --------------------- *)

(* Best 2-hop detour for the removed pair (a,b): min_z (|az| + |zb|). *)
let detour t a b =
  let best = ref Float.infinity in
  for z = 0 to t.n - 1 do
    if z <> a && z <> b then begin
      let c = unsafe_distance t a z +. unsafe_distance t z b in
      if c < !best then best := c
    end
  done;
  !best

let sssp_edited_into t ?remove ?add source dst =
  check t source "sssp_edited_into";
  if Array.length dst < t.n then invalid_arg "Rd_dist.sssp_edited_into: row too short";
  Metric.Counter.incr c_whatif_rows;
  let s = source in
  (* Distances after the removal: identical to the oracle except the
     removed pair, whose distance becomes the 2-hop detour. *)
  let rm_dist p q =
    if p = q then 0.0
    else
      match remove with
      | Some (a, b) when (p = a && q = b) || (p = b && q = a) -> detour t a b
      | _ -> unsafe_distance t p q
  in
  (match add with
  | None ->
    for x = 0 to t.n - 1 do
      Array.unsafe_set dst x (rm_dist s x)
    done
  | Some (u, v, w) ->
    (* Insertion relaxation against the post-removal base: the new edge
       is crossed at most once on any shortest path. *)
    let dsu = rm_dist s u and dsv = rm_dist s v in
    for x = 0 to t.n - 1 do
      let via_uv = dsu +. w +. rm_dist v x in
      let via_vu = dsv +. w +. rm_dist u x in
      Array.unsafe_set dst x (fmin (rm_dist s x) (fmin via_uv via_vu))
    done)

let sssp_edited_sum t ?remove ?add source =
  check t source "sssp_edited_sum";
  Metric.Counter.incr c_whatif_rows;
  let s = source in
  let rm_dist p q =
    if p = q then 0.0
    else
      match remove with
      | Some (a, b) when (p = a && q = b) || (p = b && q = a) -> detour t a b
      | _ -> unsafe_distance t p q
  in
  let acc = ref 0.0 and c = ref 0.0 in
  let addk =
    match add with
    | None -> fun x -> rm_dist s x
    | Some (u, v, w) ->
      let dsu = rm_dist s u and dsv = rm_dist s v in
      fun x ->
        fmin (rm_dist s x) (fmin (dsu +. w +. rm_dist v x) (dsv +. w +. rm_dist u x))
  in
  for x = 0 to t.n - 1 do
    let m = addk x in
    let y = m -. !c in
    let tt = !acc +. y in
    c := tt -. !acc -. y;
    acc := tt
  done;
  !acc

(* --- nearest-addable-target queries ------------------------------------ *)

let nearest t ?accept u =
  check t u "nearest";
  Metric.Counter.incr c_nearest;
  Kd_tree.nearest t.kd ?accept u

let nearest_linear t ?accept u =
  check t u "nearest_linear";
  Kd_tree.nearest_linear t.kd ?accept u

(* --- drift sentinel ---------------------------------------------------- *)

(* The coordinates exist twice — the oracle's flat store and the k-d
   tree's private copy.  The probe cross-checks one round-robin point
   between the two; on mismatch the flat store is restored from the
   index's copy (the index is immutable since construction). *)

let set_selfcheck t n = t.selfcheck_every <- max 0 n

let selfcheck_cadence t = t.selfcheck_every

let selfcheck_now t =
  Metric.Counter.incr c_selfcheck_probes;
  let s = t.selfcheck_cursor mod t.n in
  t.selfcheck_cursor <- (s + 1) mod t.n;
  let stored = Kd_tree.point t.kd s in
  let clean = ref true in
  (try
     for i = 0 to t.d - 1 do
       if not (Gncg_util.Flt.approx_eq t.flat.((s * t.d) + i) stored.(i)) then begin
         clean := false;
         raise Exit
       end
     done
   with Exit -> ());
  if !clean then begin
    (* Independent-path cross-check: linear scan vs tree descent must
       agree on the nearest neighbour's distance. *)
    match (nearest t s, nearest_linear t s) with
    | Some (_, dk), Some (_, dl) when not (Gncg_util.Flt.approx_eq dk dl) -> clean := false
    | _ -> ()
  end;
  if not !clean then begin
    Metric.Counter.incr c_selfcheck_mismatches;
    for i = 0 to t.n - 1 do
      let p = Kd_tree.point t.kd i in
      Array.blit p 0 t.flat (i * t.d) t.d
    done;
    Metric.Counter.incr c_selfcheck_repairs
  end;
  !clean

let inject_cell_error t u _v delta =
  check t u "inject_cell_error";
  (* The oracle has no cells; perturbing a coordinate of point [u] shifts
     every distance through it and desyncs the k-d tree's copy. *)
  t.flat.(u * t.d) <- t.flat.(u * t.d) +. delta

let memory_bytes t =
  let word = Sys.word_size / 8 in
  let float_arr len = (len + 2) * word in
  let int_arr len = (len + 2) * word in
  float_arr (Array.length t.flat)
  + float_arr (Array.length t.flat) (* k-d tree coordinate copy *)
  + int_arr t.n (* k-d tree index permutation *)
