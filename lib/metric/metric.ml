module Wgraph = Gncg_graph.Wgraph
module Flt = Gncg_util.Flt

type t = { size : int; w : float array array }

let check_weight x =
  if Float.is_nan x || x < 0.0 then invalid_arg "Metric: weight must be non-negative"

let make size f =
  if size < 0 then invalid_arg "Metric.make: negative size";
  let w = Array.make_matrix size size 0.0 in
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      let x = f u v in
      check_weight x;
      w.(u).(v) <- x;
      w.(v).(u) <- x
    done
  done;
  { size; w }

let of_matrix m =
  let size = Array.length m in
  Array.iter
    (fun row -> if Array.length row <> size then invalid_arg "Metric.of_matrix: non-square")
    m;
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      if m.(u).(v) <> m.(v).(u) then invalid_arg "Metric.of_matrix: asymmetric"
    done
  done;
  make size (fun u v -> m.(u).(v))

let n h = h.size

let weight h u v =
  if u < 0 || u >= h.size || v < 0 || v >= h.size then
    invalid_arg "Metric.weight: vertex out of range";
  h.w.(u).(v)

let row h u =
  if u < 0 || u >= h.size then invalid_arg "Metric.row: vertex out of range";
  h.w.(u)

let triangle_violations ?(tol = Flt.eps) h =
  let acc = ref [] in
  for u = 0 to h.size - 1 do
    for v = u + 1 to h.size - 1 do
      for x = 0 to h.size - 1 do
        if x <> u && x <> v && h.w.(u).(v) > h.w.(u).(x) +. h.w.(x).(v) +. tol then
          acc := (u, v, x) :: !acc
      done
    done
  done;
  List.rev !acc

module Gncg_error = Gncg_util.Gncg_error

(* First-failure validation with located typed errors; [is_metric] stays
   the cheap boolean form.  Exactness is the caller's choice through
   [tol] (1-2 metrics validate with [~tol:0.0]; Euclidean closures need
   the Flt tolerance). *)
let validate ?(tol = Flt.eps) ?(require_metric = true) h =
  let ( let* ) = Result.bind in
  let ctx = "Metric.validate" in
  let err ?where kind msg = Gncg_error.fail ?where ~context:ctx kind msg in
  let n = h.size in
  let* () =
    let bad = ref None in
    for u = 0 to n - 1 do
      if !bad = None && h.w.(u).(u) <> 0.0 then bad := Some u
    done;
    match !bad with
    | Some u ->
      err ~where:(Gncg_error.Pair (u, u)) Gncg_error.Inconsistent "non-zero diagonal"
    | None -> Ok ()
  in
  let* () =
    let bad = ref None in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if !bad = None then begin
          let x = h.w.(u).(v) in
          if x <> h.w.(v).(u) && not (Float.is_nan x && Float.is_nan h.w.(v).(u)) then
            bad := Some (u, v, Gncg_error.Asymmetric, "w(u,v) <> w(v,u)")
          else if Float.is_nan x then
            bad := Some (u, v, Gncg_error.Not_finite, "NaN weight")
          else if x < 0.0 then
            bad := Some (u, v, Gncg_error.Negative, Printf.sprintf "weight %g < 0" x)
          else if x = 0.0 then
            bad := Some (u, v, Gncg_error.Negative, "zero off-diagonal weight")
          else if require_metric && x = Float.infinity then
            bad := Some (u, v, Gncg_error.Not_finite, "infinite weight in a metric host")
        end
      done
    done;
    match !bad with
    | Some (u, v, kind, msg) -> err ~where:(Gncg_error.Pair (u, v)) kind msg
    | None -> Ok ()
  in
  let* () =
    if n = 0 then Ok ()
    else begin
      let uf = Gncg_graph.Union_find.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Float.is_finite h.w.(u).(v) then ignore (Gncg_graph.Union_find.union uf u v)
        done
      done;
      if Gncg_graph.Union_find.count uf = 1 then Ok ()
      else begin
        let stray = ref 0 in
        for u = n - 1 downto 1 do
          if not (Gncg_graph.Union_find.same uf 0 u) then stray := u
        done;
        err ~where:(Gncg_error.Vertex !stray) Gncg_error.Disconnected
          "no finite-weight path to vertex 0"
      end
    end
  in
  if not require_metric then Ok ()
  else begin
    let bad = ref None in
    (try
       for u = 0 to n - 1 do
         for v = u + 1 to n - 1 do
           for x = 0 to n - 1 do
             if x <> u && x <> v && h.w.(u).(v) > h.w.(u).(x) +. h.w.(x).(v) +. tol then begin
               bad := Some (u, v, x);
               raise Exit
             end
           done
         done
       done
     with Exit -> ());
    match !bad with
    | Some (u, v, x) ->
      Gncg_error.failf ~where:(Gncg_error.Triple (u, v, x)) ~context:ctx
        Gncg_error.Triangle "w(%d,%d)=%g > w(%d,%d)+w(%d,%d)=%g" u v h.w.(u).(v) u x x v
        (h.w.(u).(x) +. h.w.(x).(v))
    | None -> Ok ()
  end

let is_metric ?(tol = Flt.eps) h =
  let positive = ref true in
  for u = 0 to h.size - 1 do
    for v = u + 1 to h.size - 1 do
      if h.w.(u).(v) <= 0.0 || not (Float.is_finite h.w.(u).(v)) then positive := false
    done
  done;
  !positive && triangle_violations ~tol h = []

let metric_closure h = { size = h.size; w = Gncg_graph.Floyd_warshall.run h.w }

let of_graph_closure g =
  { size = Wgraph.n g; w = Gncg_graph.Floyd_warshall.closure_of_graph g }

let complete_graph h =
  let g = Wgraph.create h.size in
  for u = 0 to h.size - 1 do
    for v = u + 1 to h.size - 1 do
      if Float.is_finite h.w.(u).(v) then Wgraph.add_edge g u v h.w.(u).(v)
    done
  done;
  g

let scale c h =
  if c <= 0.0 then invalid_arg "Metric.scale: non-positive factor";
  make h.size (fun u v -> c *. h.w.(u).(v))

let perturb rng ~magnitude h =
  if magnitude < 0.0 then invalid_arg "Metric.perturb: negative magnitude";
  make h.size (fun u v ->
      if Float.is_finite h.w.(u).(v) then h.w.(u).(v) +. Gncg_util.Prng.float rng magnitude
      else h.w.(u).(v))

let max_finite_weight h =
  let best = ref 0.0 in
  for u = 0 to h.size - 1 do
    for v = u + 1 to h.size - 1 do
      if Float.is_finite h.w.(u).(v) then best := Float.max !best h.w.(u).(v)
    done
  done;
  !best

let equal ?(tol = Flt.eps) a b =
  a.size = b.size
  && begin
       let ok = ref true in
       for u = 0 to a.size - 1 do
         for v = u + 1 to a.size - 1 do
           let x = a.w.(u).(v) and y = b.w.(u).(v) in
           let same =
             if Float.is_finite x && Float.is_finite y then Flt.approx_eq ~tol x y
             else x = y
           in
           if not same then ok := false
         done
       done;
       !ok
     end
