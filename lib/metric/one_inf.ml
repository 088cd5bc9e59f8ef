module Prng = Gncg_util.Prng

let of_allowed_edges size allowed =
  let tbl = Hashtbl.create (List.length allowed) in
  List.iter
    (fun (u, v) ->
      if u = v then invalid_arg "One_inf.of_allowed_edges: self-loop";
      Hashtbl.replace tbl (min u v, max u v) ())
    allowed;
  Metric.make size (fun u v ->
      if Hashtbl.mem tbl (min u v, max u v) then 1.0 else Float.infinity)

let random_connected rng ~n ~p =
  let allowed = ref [] in
  (* A random spanning tree first, so every agent can reach every other. *)
  let order = Prng.permutation rng n in
  for i = 1 to n - 1 do
    let j = Prng.int rng i in
    allowed := (order.(i), order.(j)) :: !allowed
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.coin rng p then allowed := (u, v) :: !allowed
    done
  done;
  of_allowed_edges n !allowed

let is_one_inf h =
  let ok = ref true in
  let n = Metric.n h in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let w = Metric.weight h u v in
      if w <> 1.0 && w <> Float.infinity then ok := false
    done
  done;
  !ok
