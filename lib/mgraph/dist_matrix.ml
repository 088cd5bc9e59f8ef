(* Flat row-major storage: one unboxed floatarray of length n² instead of
   n boxed rows.  The O(n²) relaxation loops walk a single contiguous
   buffer (no per-row indirection), and the row snapshots the insertion
   update needs are preallocated workspaces blitted into place — an
   [add_edge] allocates nothing. *)

module Metric = Gncg_obs.Metric

let c_insertions = Metric.Counter.make "dist_matrix.insertions"
let c_whatif_totals = Metric.Counter.make "dist_matrix.whatif_totals"

type t = {
  n : int;
  d : Float.Array.t;        (* n*n, index u*n+v *)
  snap_u : Float.Array.t;   (* reusable row snapshots for add_edge *)
  snap_v : Float.Array.t;
}

let alloc n =
  {
    n;
    d = Float.Array.create (n * n);
    snap_u = Float.Array.create n;
    snap_v = Float.Array.create n;
  }

let of_matrix m =
  let n = Array.length m in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Dist_matrix.of_matrix: non-square")
    m;
  let t = alloc n in
  for u = 0 to n - 1 do
    let row = m.(u) in
    for v = 0 to n - 1 do
      Float.Array.unsafe_set t.d ((u * n) + v) (Array.unsafe_get row v)
    done
  done;
  t

let of_graph g =
  let n = Wgraph.n g in
  let t = alloc n in
  let adj = Flat_adj.of_wgraph g in
  let row = Array.make n Float.infinity in
  for u = 0 to n - 1 do
    Flat_adj.sssp_into adj u row;
    for v = 0 to n - 1 do
      Float.Array.unsafe_set t.d ((u * n) + v) (Array.unsafe_get row v)
    done
  done;
  t

let size t = t.n

let check t u name =
  if u < 0 || u >= t.n then invalid_arg (Printf.sprintf "Dist_matrix.%s: out of range" name)

let distance t u v =
  check t u "distance";
  check t v "distance";
  Float.Array.get t.d ((u * t.n) + v)

let total t =
  (* Kahan over the whole flat buffer; any infinite entry (disconnected
     pair) makes the total infinite without reaching the compensation. *)
  let len = t.n * t.n in
  let s = ref 0.0 and c = ref 0.0 in
  let any_inf = ref false in
  for i = 0 to len - 1 do
    let x = Float.Array.unsafe_get t.d i in
    if x = Float.infinity then any_inf := true
    else begin
      let y = x -. !c in
      let tt = !s +. y in
      c := tt -. !s -. y;
      s := tt
    end
  done;
  if !any_inf then Float.infinity else !s

let copy t =
  let t' = alloc t.n in
  Float.Array.blit t.d 0 t'.d 0 (t.n * t.n);
  t'

(* Compare-select minimum for the distance kernels: the bits of
   [Float.min] on shortest-path distances, which are never NaN and
   never -0 (sums of non-negative weights or +inf, +0 on the diagonal),
   without its sign-bit C call.  Local, not shared: under the dev
   profile's -opaque a cross-module helper would box both floats. *)
let[@inline] fmin (a : float) b = if b < a then b else a

let add_edge t u v w =
  check t u "add_edge";
  check t v "add_edge";
  Metric.Counter.incr c_insertions;
  if u = v then invalid_arg "Dist_matrix.add_edge: self-loop";
  if w < 0.0 || Float.is_nan w then invalid_arg "Dist_matrix.add_edge: negative weight";
  let n = t.n in
  if w < Float.Array.get t.d ((u * n) + v) then begin
    (* Rows u and v are read while every row (incl. themselves) is being
       written: snapshot them into the reusable workspaces first. *)
    let du = t.snap_u and dv = t.snap_v in
    Float.Array.blit t.d (u * n) du 0 n;
    Float.Array.blit t.d (v * n) dv 0 n;
    for x = 0 to n - 1 do
      let base = x * n in
      let dxu = Float.Array.unsafe_get du x and dxv = Float.Array.unsafe_get dv x in
      (* min over the three routings; written to avoid inf arithmetic
         pitfalls (inf + finite = inf is fine; no inf - inf appears). *)
      for y = 0 to n - 1 do
        let via_uv = dxu +. w +. Float.Array.unsafe_get dv y in
        let via_vu = dxv +. w +. Float.Array.unsafe_get du y in
        let cur = Float.Array.unsafe_get t.d (base + y) in
        let best = fmin cur (fmin via_uv via_vu) in
        if best < cur then Float.Array.unsafe_set t.d (base + y) best
      done
    done
  end

let with_edge_added t u v w =
  let t' = copy t in
  add_edge t' u v w;
  t'

let total_with_edge_added t u v w =
  check t u "total_with_edge_added";
  check t v "total_with_edge_added";
  Metric.Counter.incr c_whatif_totals;
  let n = t.n in
  if w >= Float.Array.get t.d ((u * n) + v) then total t
  else begin
    let ubase = u * n and vbase = v * n in
    let s = ref 0.0 and c = ref 0.0 in
    let any_inf = ref false in
    for x = 0 to n - 1 do
      let base = x * n in
      let dxu = Float.Array.unsafe_get t.d (ubase + x)
      and dxv = Float.Array.unsafe_get t.d (vbase + x) in
      for y = 0 to n - 1 do
        let via_uv = dxu +. w +. Float.Array.unsafe_get t.d (vbase + y) in
        let via_vu = dxv +. w +. Float.Array.unsafe_get t.d (ubase + y) in
        let d = fmin (Float.Array.unsafe_get t.d (base + y)) (fmin via_uv via_vu) in
        if d = Float.infinity then any_inf := true
        else begin
          let y' = d -. !c in
          let tt = !s +. y' in
          c := tt -. !s -. y';
          s := tt
        end
      done
    done;
    if !any_inf then Float.infinity else !s
  end
