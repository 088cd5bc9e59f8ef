type norm = L1 | L2 | Lp of float | Linf

type points = float array array

let dist norm a b =
  let d = Array.length a in
  if Array.length b <> d then invalid_arg "Euclidean.dist: dimension mismatch";
  match norm with
  | L1 ->
    let s = ref 0.0 in
    for i = 0 to d - 1 do
      s := !s +. Float.abs (a.(i) -. b.(i))
    done;
    !s
  | L2 ->
    let s = ref 0.0 in
    for i = 0 to d - 1 do
      let x = a.(i) -. b.(i) in
      s := !s +. (x *. x)
    done;
    sqrt !s
  | Lp p ->
    if p < 1.0 then invalid_arg "Euclidean.dist: p < 1";
    let s = ref 0.0 in
    for i = 0 to d - 1 do
      s := !s +. (Float.abs (a.(i) -. b.(i)) ** p)
    done;
    !s ** (1.0 /. p)
  | Linf ->
    let s = ref 0.0 in
    for i = 0 to d - 1 do
      s := Float.max !s (Float.abs (a.(i) -. b.(i)))
    done;
    !s

let dimension pts = if Array.length pts = 0 then 0 else Array.length pts.(0)

let metric norm pts =
  let n = Array.length pts in
  let d = dimension pts in
  Array.iter
    (fun p -> if Array.length p <> d then invalid_arg "Euclidean.metric: ragged points")
    pts;
  Metric.make n (fun u v -> dist norm pts.(u) pts.(v))

let of_list rows = Array.of_list (List.map Array.of_list rows)

let line coords = of_list (List.map (fun x -> [ x ]) coords)

let random_uniform rng ~n ~d ~lo ~hi =
  Array.init n (fun _ -> Array.init d (fun _ -> Gncg_util.Prng.float_in rng lo hi))

let random_clusters rng ~n ~d ~clusters ~spread ~box =
  if clusters < 1 then invalid_arg "Euclidean.random_clusters";
  let centers =
    Array.init clusters (fun _ -> Array.init d (fun _ -> Gncg_util.Prng.float rng box))
  in
  Array.init n (fun _ ->
      let c = centers.(Gncg_util.Prng.int rng clusters) in
      Array.init d (fun i -> c.(i) +. (spread *. Gncg_util.Prng.gaussian rng)))

