(* Implicit distance oracle for tree metrics: no matrix, O(n) storage.

   The network is the tree itself, so every pairwise distance decomposes
   along the unique tree path:

     d(u,v) = rootdist(u) + rootdist(v) - 2 * rootdist(lca(u,v))

   An Euler tour plus a sparse table over tour depths makes the LCA an
   O(1) range-minimum query, so single gets are O(1), rows and streaming
   what-if kernels O(n), and the total footprint O(n log n) ints — at
   n = 100k about 30 MB against the dense backend's 80 GB.

   Distance sums are O(1): a two-pass subtree DP precomputes
   sums(u) = Σ_v d(u,v) for every vertex at build time.

   What-if edits (the response engines' delete/swap probes) run the
   flat-adjacency SSSP kernel over the edited tree — n-1 edges, so
   O(n log n) per probe. *)

module Metric = Gncg_obs.Metric

let c_builds = Metric.Counter.make "tree_dist.builds"
let c_row_kernels = Metric.Counter.make "tree_dist.row_kernels"
let c_whatif_sssp = Metric.Counter.make "tree_dist.whatif_sssp"
let c_selfcheck_probes = Metric.Counter.make "tree_dist.selfcheck_probes"
let c_selfcheck_mismatches = Metric.Counter.make "tree_dist.selfcheck_mismatches"
let c_selfcheck_repairs = Metric.Counter.make "tree_dist.selfcheck_repairs"

type t = {
  tree : Wgraph.t;            (* the tree itself: n-1 edges, owned *)
  n : int;
  rootdist : float array;     (* weighted distance from root 0 *)
  sums : float array;         (* Σ_v d(u,v), two-pass reroot DP *)
  first : int array;          (* first Euler occurrence per vertex *)
  euler : int array;          (* Euler tour vertices, length 2n-1 *)
  edepth : int array;         (* integer depth per Euler position *)
  sparse : int array array;   (* sparse.(k).(i): argmin-depth position in [i, i+2^k) *)
  lg : int array;             (* floor log2 per range length *)
  scratch : float array;      (* reusable row for what-ifs / selfcheck *)
  adj : Flat_adj.t;           (* the tree in flat form, for what-ifs / selfcheck *)
  mutable selfcheck_every : int;
  mutable selfcheck_countdown : int;
  mutable selfcheck_cursor : int;
}

(* Iterative Euler tour from root 0 — explicit stack, deep paths safe.
   Fills rootdist/first/euler/edepth/order (pre-order) and returns the
   parent array; raises on forests (unvisited vertices). *)
let tour tree n rootdist first euler edepth order =
  let parent = Array.make n (-1) in
  let vdepth = Array.make n 0 in
  (* CSR adjacency: O(degree) scanning without list churn. *)
  let off = Array.make (n + 1) 0 in
  Wgraph.iter_edges tree (fun u v _ ->
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1);
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let m2 = off.(n) in
  let adj_v = Array.make (max 1 m2) 0 and adj_w = Array.make (max 1 m2) 0.0 in
  let fill = Array.copy off in
  Wgraph.iter_edges tree (fun u v w ->
      adj_v.(fill.(u)) <- v;
      adj_w.(fill.(u)) <- w;
      fill.(u) <- fill.(u) + 1;
      adj_v.(fill.(v)) <- u;
      adj_w.(fill.(v)) <- w;
      fill.(v) <- fill.(v) + 1);
  let iter = Array.init n (fun u -> off.(u)) in
  let stack = Array.make n 0 in
  let top = ref 0 in
  let pos = ref 0 in
  let visited = ref 1 in
  let record u =
    euler.(!pos) <- u;
    edepth.(!pos) <- vdepth.(u);
    if first.(u) < 0 then first.(u) <- !pos;
    incr pos
  in
  Array.fill first 0 n (-1);
  stack.(0) <- 0;
  rootdist.(0) <- 0.0;
  order.(0) <- 0;
  record 0;
  while !top >= 0 do
    let u = stack.(!top) in
    (* Skip the edge back to the parent. *)
    while iter.(u) < off.(u + 1) && adj_v.(iter.(u)) = parent.(u) do
      iter.(u) <- iter.(u) + 1
    done;
    if iter.(u) < off.(u + 1) then begin
      let v = adj_v.(iter.(u)) and w = adj_w.(iter.(u)) in
      iter.(u) <- iter.(u) + 1;
      if parent.(v) >= 0 || v = 0 then
        invalid_arg "Tree_dist: graph has a cycle"
      else begin
        parent.(v) <- u;
        vdepth.(v) <- vdepth.(u) + 1;
        rootdist.(v) <- rootdist.(u) +. w;
        order.(!visited) <- v;
        incr visited;
        incr top;
        stack.(!top) <- v;
        record v
      end
    end
    else begin
      decr top;
      if !top >= 0 then record stack.(!top)
    end
  done;
  if !visited <> n then invalid_arg "Tree_dist: tree is not connected";
  parent

(* Sparse table over Euler depths: sparse.(k).(i) is the position of the
   minimum depth in [i, i + 2^k).  Build O(len log len). *)
let build_sparse edepth len =
  let levels = ref 1 in
  while 1 lsl !levels <= len do
    incr levels
  done;
  let sparse = Array.make !levels [||] in
  sparse.(0) <- Array.init len (fun i -> i);
  for k = 1 to !levels - 1 do
    let half = 1 lsl (k - 1) in
    let width = 1 lsl k in
    let prev = sparse.(k - 1) in
    let cur = Array.make (len - width + 1) 0 in
    for i = 0 to len - width do
      let a = prev.(i) and b = prev.(i + half) in
      cur.(i) <- (if edepth.(a) <= edepth.(b) then a else b)
    done;
    sparse.(k) <- cur
  done;
  let lg = Array.make (len + 1) 0 in
  for i = 2 to len do
    lg.(i) <- lg.(i / 2) + 1
  done;
  (sparse, lg)

(* Two-pass reroot DP for sums(u) = Σ_v d(u,v): accumulate subtree sizes
   and downward sums bottom-up (reverse pre-order), then push across each
   edge top-down: sums(child) = sums(parent) + (n - 2*size(child)) * w. *)
let build_sums n rootdist parent order sums =
  let size = Array.make n 1 in
  let down = Array.make n 0.0 in
  for i = n - 1 downto 1 do
    let u = order.(i) in
    let p = parent.(u) in
    let w = rootdist.(u) -. rootdist.(p) in
    size.(p) <- size.(p) + size.(u);
    down.(p) <- down.(p) +. down.(u) +. (float_of_int size.(u) *. w)
  done;
  sums.(0) <- down.(0);
  for i = 1 to n - 1 do
    let u = order.(i) in
    let p = parent.(u) in
    let w = rootdist.(u) -. rootdist.(p) in
    sums.(u) <- sums.(p) +. (float_of_int (n - (2 * size.(u))) *. w)
  done

let populate t =
  let order = Array.make t.n 0 in
  let parent = tour t.tree t.n t.rootdist t.first t.euler t.edepth order in
  build_sums t.n t.rootdist parent order t.sums;
  let sparse, lg = build_sparse t.edepth (Array.length t.euler) in
  (sparse, lg)

let default_selfcheck_ref = Incr_apsp.default_selfcheck_cadence

let of_tree_no_copy tree =
  Metric.Counter.incr c_builds;
  let n = Wgraph.n tree in
  if n < 1 then invalid_arg "Tree_dist.of_tree: empty graph";
  if Wgraph.m tree <> n - 1 then
    invalid_arg
      (Printf.sprintf "Tree_dist.of_tree: %d edges on %d vertices is not a tree"
         (Wgraph.m tree) n);
  let len = (2 * n) - 1 in
  let t =
    {
      tree;
      n;
      rootdist = Array.make n 0.0;
      sums = Array.make n 0.0;
      first = Array.make n (-1);
      euler = Array.make len 0;
      edepth = Array.make len 0;
      sparse = [||];
      lg = [||];
      scratch = Array.make n Float.infinity;
      adj = Flat_adj.of_wgraph tree;
      selfcheck_every = default_selfcheck_ref ();
      selfcheck_countdown = 0;
      selfcheck_cursor = 0;
    }
  in
  let sparse, lg = populate t in
  { t with sparse; lg }

let of_tree tree = of_tree_no_copy (Wgraph.copy tree)

let graph t = t.tree

let n t = t.n

let check t u name =
  if u < 0 || u >= t.n then
    invalid_arg (Printf.sprintf "Tree_dist.%s: vertex %d out of range" name u)

let lca t u v =
  let fu = t.first.(u) and fv = t.first.(v) in
  let l = if fu <= fv then fu else fv and r = if fu <= fv then fv else fu in
  let k = Array.unsafe_get t.lg (r - l + 1) in
  let a = Array.unsafe_get (Array.unsafe_get t.sparse k) l in
  let b = Array.unsafe_get (Array.unsafe_get t.sparse k) (r - (1 lsl k) + 1) in
  Array.unsafe_get t.euler
    (if Array.unsafe_get t.edepth a <= Array.unsafe_get t.edepth b then a else b)

let unsafe_distance t u v =
  if u = v then 0.0
  else
    Array.unsafe_get t.rootdist u
    +. Array.unsafe_get t.rootdist v
    -. (2.0 *. Array.unsafe_get t.rootdist (lca t u v))

let distance t u v =
  check t u "distance";
  check t v "distance";
  unsafe_distance t u v

let row_into t u dst =
  check t u "row_into";
  if Array.length dst < t.n then invalid_arg "Tree_dist.row_into: row too short";
  Metric.Counter.incr c_row_kernels;
  for x = 0 to t.n - 1 do
    Array.unsafe_set dst x (unsafe_distance t u x)
  done

let row t u =
  check t u "row";
  let dst = Array.make t.n 0.0 in
  row_into t u dst;
  dst

let dist_sum t u =
  check t u "dist_sum";
  Array.unsafe_get t.sums u

(* Compare-select minimum for the distance kernels: the bits of
   [Float.min] on tree distances, which are never NaN and never -0
   (r_u + r_v - 2·r_lca rounds to >= +0; the diagonal is +0), without
   its sign-bit C call.  Local, not shared: under the dev profile's
   -opaque a cross-module helper would box both floats. *)
let[@inline] fmin (a : float) b = if b < a then b else a

let dist_sum_with_edge t u v w =
  check t u "dist_sum_with_edge";
  check t v "dist_sum_with_edge";
  Metric.Counter.incr c_row_kernels;
  (* Σ_x min(d(u,x), w + d(v,x)) streamed through the oracle — Kahan, as
     in the dense kernel (tree distances are finite by construction). *)
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
  if Array.length r < t.n then invalid_arg "Tree_dist.min_sum_against: row too short";
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

(* --- what-if evaluation: the SSSP kernel on the edited tree ------------- *)

let sssp_edited_into t ?remove ?add source dst =
  check t source "sssp_edited_into";
  Metric.Counter.incr c_whatif_sssp;
  Flat_adj.sssp_edited_into t.adj ?remove ?add source dst

let sssp_edited_sum t ?remove ?add source =
  check t source "sssp_edited_sum";
  Metric.Counter.incr c_whatif_sssp;
  Flat_adj.sssp_edited_into t.adj ?remove ?add source t.scratch;
  Gncg_util.Flt.sum t.scratch

(* --- drift sentinel ---------------------------------------------------- *)

let set_selfcheck t n =
  let n = max 0 n in
  t.selfcheck_every <- n;
  t.selfcheck_countdown <- n

let selfcheck_cadence t = t.selfcheck_every

let rebuild_in_place t =
  let order = Array.make t.n 0 in
  let parent = tour t.tree t.n t.rootdist t.first t.euler t.edepth order in
  build_sums t.n t.rootdist parent order t.sums
(* The sparse table depends only on the tour shape, which [tour] rebuilds
   identically (the tree is immutable), so it stays valid. *)

let selfcheck_now t =
  Metric.Counter.incr c_selfcheck_probes;
  (* A kernel pass over the tree vs the LCA oracle for one round-robin
     source — fully independent code paths over the same structure. *)
  let s = t.selfcheck_cursor mod t.n in
  t.selfcheck_cursor <- (s + 1) mod t.n;
  Flat_adj.sssp_into t.adj s t.scratch;
  let clean = ref true in
  (try
     for x = 0 to t.n - 1 do
       if not (Gncg_util.Flt.approx_eq (Array.unsafe_get t.scratch x) (unsafe_distance t s x))
       then begin
         clean := false;
         raise Exit
       end
     done
   with Exit -> ());
  if !clean then
    if not (Gncg_util.Flt.approx_eq (dist_sum t s) (Gncg_util.Flt.sum t.scratch)) then
      clean := false;
  if not !clean then begin
    Metric.Counter.incr c_selfcheck_mismatches;
    rebuild_in_place t;
    Metric.Counter.incr c_selfcheck_repairs
  end;
  !clean

let inject_cell_error t u _v delta =
  check t u "inject_cell_error";
  (* The oracle has no per-cell storage; perturbing rootdist(u) shifts
     every distance through u — the closest analogue of a stray write. *)
  t.rootdist.(u) <- t.rootdist.(u) +. delta

let memory_bytes t =
  let word = Sys.word_size / 8 in
  let float_arr len = (len + 2) * word in
  let int_arr len = (len + 2) * word in
  let len = Array.length t.euler in
  float_arr t.n (* rootdist *)
  + float_arr t.n (* sums *)
  + float_arr t.n (* scratch *)
  + int_arr t.n (* first *)
  + (2 * int_arr len) (* euler + edepth *)
  + int_arr (len + 1) (* lg *)
  + Array.fold_left (fun acc a -> acc + int_arr (Array.length a)) 0 t.sparse
